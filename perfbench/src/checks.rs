//! Output checks: bitwise digests of what a workload produced, the
//! comparisons between them, and the pass/fail ledger behind the
//! result line's `attempted` and `failed` counts.

use std::fmt::Display;
use std::path::Path;

use rd_tensor::ParamSet;
use road_decals::{Cell, ChallengeOutcome, Decal, Table};

/// The seed whose digests are pinned in `reference_digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

const REFERENCE: &str = include_str!("../reference_digests.txt");

/// FNV-1a over the exact bits of every value folded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f32(&mut self, v: f32) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn cell(&mut self, c: &Cell) {
        self.f32(c.pwc);
        self.u64(u64::from(c.cwc));
    }

    pub fn table(&mut self, t: &Table) {
        self.str(&t.title);
        for c in &t.columns {
            self.str(c);
        }
        for (label, cells) in &t.rows {
            self.str(label);
            for c in cells {
                self.cell(c);
            }
        }
    }

    pub fn outcome(&mut self, o: &ChallengeOutcome) {
        self.cell(&o.cell);
        self.u64(o.frames_per_run as u64);
        self.f32(o.victim_detected);
    }

    pub fn params(&mut self, ps: &ParamSet) {
        for (_, p) in ps.iter() {
            self.str(p.name());
            for &v in p.value().data() {
                self.f32(v);
            }
        }
    }

    pub fn decal(&mut self, d: &Decal) {
        self.u64(d.num_channels() as u64);
        for &v in d.channel_data() {
            self.f32(v);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Bitwise table equality: same layout, and every cell's PWC bits and
/// CWC flag identical.
pub fn tables_equal(a: &Table, b: &Table) -> bool {
    a.title == b.title
        && a.columns == b.columns
        && a.rows.len() == b.rows.len()
        && a.rows.iter().zip(&b.rows).all(|((la, ca), (lb, cb))| {
            la == lb && ca.len() == cb.len() && ca.iter().zip(cb).all(|(x, y)| cells_equal(x, y))
        })
}

fn cells_equal(a: &Cell, b: &Cell) -> bool {
    a.pwc.to_bits() == b.pwc.to_bits() && a.cwc == b.cwc
}

/// Bitwise equality of two challenge outcomes.
pub fn outcomes_equal(a: &ChallengeOutcome, b: &ChallengeOutcome) -> bool {
    cells_equal(&a.cell, &b.cell)
        && a.frames_per_run == b.frames_per_run
        && a.victim_detected.to_bits() == b.victim_detected.to_bits()
}

/// The reference digest pinned for `workload` at [`DEFAULT_SEED`].
pub fn reference_digest(workload: &str) -> Option<&'static str> {
    REFERENCE.lines().find_map(|line| {
        let mut it = line.split_whitespace();
        match (it.next(), it.next()) {
            (Some(w), Some(d)) if w == workload => Some(d),
            _ => None,
        }
    })
}

/// Every output check a run made, and the ones that missed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one check; a miss is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[perfbench] check failed: {what}");
        }
    }

    /// The checks every workload runs on its final digest: the pinned
    /// reference at the default seed, and agreement with the digest any
    /// earlier run of the same workload and seed left in `state_dir`,
    /// traced or not.
    pub fn digest(&mut self, state_dir: &Path, workload: &str, seed: u64, digest: Digest) {
        let hex = digest.hex();
        if seed == DEFAULT_SEED {
            let want = reference_digest(workload).unwrap_or("missing");
            self.check(
                hex == want,
                format!("{workload} digest {hex} != reference {want}"),
            );
        }
        let path = state_dir.join(format!("digest-{workload}-{seed}.txt"));
        match std::fs::read_to_string(&path) {
            Ok(prev) => {
                let prev = prev.trim();
                self.check(
                    hex == prev,
                    format!("{workload} digest {hex} != earlier run's {prev}"),
                );
            }
            Err(_) => {
                if let Err(e) = std::fs::create_dir_all(state_dir)
                    .and_then(|()| std::fs::write(&path, format!("{hex}\n")))
                {
                    eprintln!(
                        "[perfbench] cannot record digest in {}: {e}",
                        path.display()
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(
            "ours",
            vec![
                Cell {
                    pwc: 0.25,
                    cwc: true,
                },
                Cell {
                    pwc: 0.5,
                    cwc: false,
                },
            ],
        );
        t
    }

    fn outcome() -> ChallengeOutcome {
        ChallengeOutcome {
            cell: Cell {
                pwc: 0.75,
                cwc: true,
            },
            frames_per_run: 48,
            victim_detected: 0.875,
        }
    }

    fn table_digest(t: &Table) -> Digest {
        let mut d = Digest::default();
        d.table(t);
        d
    }

    fn outcome_digest(o: &ChallengeOutcome) -> Digest {
        let mut d = Digest::default();
        d.outcome(o);
        d
    }

    #[test]
    fn a_flipped_table_cell_bit_fails_the_checks() {
        let a = table();
        let mut b = table();
        b.rows[0].1[1].pwc = f32::from_bits(b.rows[0].1[1].pwc.to_bits() ^ 1);
        assert!(tables_equal(&a, &a.clone()));
        let mut checks = Checks::default();
        checks.check(tables_equal(&a, &b), "flipped table cell");
        checks.check(table_digest(&a) == table_digest(&b), "flipped table digest");
        assert_eq!((checks.attempted, checks.failed), (2, 2));
    }

    #[test]
    fn a_flipped_drive_outcome_bit_fails_the_checks() {
        let a = outcome();
        let mut b = outcome();
        b.victim_detected = f32::from_bits(b.victim_detected.to_bits() ^ 1);
        assert!(outcomes_equal(&a, &outcome()));
        let mut checks = Checks::default();
        checks.check(outcomes_equal(&a, &b), "flipped drive outcome");
        checks.check(
            outcome_digest(&a) == outcome_digest(&b),
            "flipped outcome digest",
        );
        assert_eq!((checks.attempted, checks.failed), (2, 2));
    }

    #[test]
    fn a_wrong_digest_fails_against_the_reference_and_earlier_runs() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_state")
            .join(format!("selftest-{}", std::process::id()));
        let mut d = Digest::default();
        d.outcome(&outcome());
        let mut checks = Checks::default();
        checks.digest(&dir, "selftest", DEFAULT_SEED + 1, d);
        assert_eq!(
            (checks.attempted, checks.failed),
            (0, 0),
            "first run records"
        );
        let mut flipped = d;
        flipped.u64(1);
        checks.digest(&dir, "selftest", DEFAULT_SEED + 1, flipped);
        checks.digest(&dir, "table1_smoke", DEFAULT_SEED, flipped);
        assert_eq!((checks.attempted, checks.failed), (2, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_workload_has_a_reference_digest() {
        for w in crate::WORKLOADS {
            let d = reference_digest(w).expect("reference digest");
            assert_eq!(d.len(), 16, "{w}");
        }
    }
}
