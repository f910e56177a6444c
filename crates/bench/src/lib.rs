//! # rd-bench
//!
//! Table/figure reproduction and benchmark gates for the
//! `road-decals` workspace.
//!
//! * [`paper`] — the DSN 2024 paper's reported numbers, transcribed as
//!   [`road_decals::Table`]s so the `repro_*` binaries can print
//!   paper-vs-measured side by side.
//! * [`compare`] — qualitative "shape" checks (orderings, crossovers)
//!   between a measured table and its paper counterpart.
//! * `src/bin/repro_table*.rs` — binaries that regenerate each table.
//! * `src/bin/plan_audit.rs` — the static plan audit.

#![warn(missing_docs)]

pub mod paper {
    //! The paper's reported values (PWC %, CWC ✓/✗), transcribed from
    //! Tables I–VI.

    use road_decals::{Cell, Table};

    fn c(pwc: u32, cwc: bool) -> Cell {
        Cell {
            pwc: pwc as f32 / 100.0,
            cwc,
        }
    }

    const TABLE1_COLS: [&str; 8] = [
        "fix",
        "slight rotation",
        "slow",
        "normal",
        "fast",
        "-15 deg",
        "0 deg",
        "+15 deg",
    ];
    const ABLATION_COLS: [&str; 6] = ["slow", "normal", "fast", "-15 deg", "0 deg", "+15 deg"];

    /// Table I as reported by the paper.
    pub fn table1() -> Table {
        let mut t = Table::new("Table I (paper)", &TABLE1_COLS);
        t.push_row("w/o Attack", vec![c(0, false); 8]);
        t.push_row(
            "Ours (w/ 3 consecutive frames)",
            vec![
                c(92, true),
                c(80, true),
                c(78, true),
                c(45, true),
                c(26, true),
                c(70, true),
                c(78, true),
                c(74, true),
            ],
        );
        t.push_row(
            "Ours (w/o 3 consecutive frames)",
            vec![
                c(62, true),
                c(56, true),
                c(53, true),
                c(38, true),
                c(20, false),
                c(58, true),
                c(53, true),
                c(53, true),
            ],
        );
        t.push_row(
            "[34]",
            vec![
                c(46, true),
                c(38, false),
                c(34, true),
                c(19, false),
                c(10, false),
                c(22, false),
                c(34, true),
                c(30, true),
            ],
        );
        t
    }

    /// Table II as reported by the paper.
    pub fn table2() -> Table {
        let mut t = Table::new("Table II (paper)", &TABLE1_COLS);
        t.push_row(
            "Ours",
            vec![
                c(100, true),
                c(100, true),
                c(100, true),
                c(87, true),
                c(40, false),
                c(64, true),
                c(87, true),
                c(68, true),
            ],
        );
        t
    }

    /// Table III as reported by the paper.
    pub fn table3() -> Table {
        let mut t = Table::new("Table III (paper)", &ABLATION_COLS);
        t.push_row(
            "N=2",
            vec![
                c(68, true),
                c(44, true),
                c(12, false),
                c(62, true),
                c(68, true),
                c(66, true),
            ],
        );
        t.push_row(
            "N=4",
            vec![
                c(78, true),
                c(45, true),
                c(26, true),
                c(70, true),
                c(78, true),
                c(74, true),
            ],
        );
        t.push_row(
            "N=6",
            vec![
                c(76, true),
                c(48, true),
                c(18, false),
                c(72, true),
                c(76, true),
                c(70, true),
            ],
        );
        t.push_row(
            "N=8",
            vec![
                c(68, true),
                c(40, true),
                c(18, false),
                c(60, true),
                c(66, true),
                c(59, true),
            ],
        );
        t
    }

    /// Table IV as reported by the paper.
    pub fn table4() -> Table {
        let mut t = Table::new("Table IV (paper)", &ABLATION_COLS);
        t.push_row(
            "(1)+(2)+(3)+(5)",
            vec![
                c(64, true),
                c(42, true),
                c(14, false),
                c(62, true),
                c(64, true),
                c(58, true),
            ],
        );
        t.push_row(
            "(1)+(2)+(4)+(5)",
            vec![
                c(78, true),
                c(45, true),
                c(26, true),
                c(70, true),
                c(78, true),
                c(76, true),
            ],
        );
        t.push_row(
            "(2)+(3)+(4)+(5)",
            vec![
                c(76, true),
                c(44, true),
                c(26, false),
                c(73, true),
                c(76, true),
                c(71, true),
            ],
        );
        t.push_row(
            "(1)+(3)+(4)+(5)",
            vec![
                c(72, true),
                c(48, true),
                c(26, false),
                c(72, true),
                c(72, true),
                c(70, true),
            ],
        );
        t.push_row(
            "(1)+(2)+(3)+(4)",
            vec![
                c(45, true),
                c(18, false),
                c(10, false),
                c(45, true),
                c(45, true),
                c(35, false),
            ],
        );
        t.push_row(
            "All",
            vec![
                c(78, true),
                c(45, true),
                c(26, false),
                c(70, true),
                c(78, true),
                c(74, true),
            ],
        );
        t
    }

    /// Table V as reported by the paper.
    pub fn table5() -> Table {
        let mut t = Table::new("Table V (paper)", &ABLATION_COLS);
        t.push_row(
            "triangle",
            vec![
                c(36, true),
                c(20, false),
                c(11, false),
                c(33, true),
                c(36, true),
                c(36, true),
            ],
        );
        t.push_row(
            "circle",
            vec![
                c(27, true),
                c(13, false),
                c(8, false),
                c(24, true),
                c(27, true),
                c(27, true),
            ],
        );
        t.push_row(
            "star",
            vec![
                c(78, true),
                c(45, true),
                c(26, true),
                c(70, true),
                c(78, true),
                c(76, true),
            ],
        );
        t.push_row(
            "square",
            vec![
                c(34, true),
                c(19, true),
                c(10, false),
                c(34, true),
                c(34, true),
                c(11, true),
            ],
        );
        t
    }

    /// Table VI as reported by the paper.
    pub fn table6() -> Table {
        let mut t = Table::new("Table VI (paper)", &ABLATION_COLS);
        t.push_row(
            "k=20",
            vec![
                c(12, false),
                c(8, false),
                c(0, false),
                c(10, false),
                c(12, false),
                c(11, false),
            ],
        );
        t.push_row(
            "k=40",
            vec![
                c(66, true),
                c(40, true),
                c(12, false),
                c(60, true),
                c(66, true),
                c(63, true),
            ],
        );
        t.push_row(
            "k=60",
            vec![
                c(78, true),
                c(45, true),
                c(26, true),
                c(70, true),
                c(78, true),
                c(74, true),
            ],
        );
        t.push_row(
            "k=80",
            vec![
                c(32, true),
                c(12, false),
                c(5, false),
                c(36, true),
                c(32, true),
                c(32, true),
            ],
        );
        t
    }
}

pub mod compare {
    //! Shape checks: does a measured table preserve the paper's
    //! qualitative structure (who wins, monotonicities, crossovers)?

    use road_decals::Table;

    /// A single qualitative check and its verdict.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ShapeCheck {
        /// Human-readable description.
        pub description: String,
        /// Whether the measured table satisfies it.
        pub holds: bool,
    }

    fn pwc(t: &Table, row: &str, col: &str) -> f32 {
        t.cell(row, col).map(|c| c.pwc).unwrap_or(f32::NAN)
    }

    /// Mean PWC of a row (NaN when the row is missing).
    pub fn mean_pwc(t: &Table, row: &str) -> f32 {
        let (_, cells) = match t.rows.iter().find(|(l, _)| l == row) {
            Some(r) => r,
            None => return f32::NAN,
        };
        cells.iter().map(|c| c.pwc).sum::<f32>() / cells.len() as f32
    }

    /// Row A beats row B on mean PWC.
    pub fn row_dominates(t: &Table, a: &str, b: &str) -> ShapeCheck {
        ShapeCheck {
            description: format!("'{a}' outperforms '{b}' on mean PWC"),
            holds: mean_pwc(t, a) > mean_pwc(t, b),
        }
    }

    /// PWC decreases monotonically across the given columns of one row.
    pub fn monotone_decreasing(t: &Table, row: &str, cols: &[&str]) -> ShapeCheck {
        let vals: Vec<f32> = cols.iter().map(|c| pwc(t, row, c)).collect();
        ShapeCheck {
            description: format!("'{row}' PWC decreases over {cols:?}"),
            holds: vals.windows(2).all(|w| w[0] >= w[1] - 1e-6),
        }
    }

    /// A row's mean PWC is (near) zero.
    pub fn row_near_zero(t: &Table, row: &str, tol: f32) -> ShapeCheck {
        ShapeCheck {
            description: format!("'{row}' PWC is ~0"),
            holds: mean_pwc(t, row) <= tol,
        }
    }

    /// Prints the verdicts and returns how many held.
    pub fn report(checks: &[ShapeCheck]) -> usize {
        let mut ok = 0;
        for c in checks {
            println!(
                "  [{}] {}",
                if c.holds { "PASS" } else { "MISS" },
                c.description
            );
            if c.holds {
                ok += 1;
            }
        }
        println!("  {}/{} shape checks hold", ok, checks.len());
        ok
    }
}

/// Parses a `--name value` style CLI argument, falling back to `default`
/// when the flag is absent.
///
/// # Errors
///
/// A flag that is present but missing its value, or whose value fails to
/// parse, is a hard error — the binaries exit nonzero instead of
/// silently running with the default.
pub fn arg<T>(name: &str, default: T) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let args: Vec<String> = std::env::args().collect();
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let Some(v) = args.get(i + 1) else {
        return Err(format!("{name} expects a value"));
    };
    v.parse()
        .map_err(|e| format!("bad value '{v}' for {name}: {e}"))
}

/// Tests for the presence of a bare `--name` CLI switch.
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Parses the recovery switches every repro binary accepts:
/// `--checkpoint-every N` writes a checkpoint every N optimizer steps
/// (0 disables), `--checkpoint-dir DIR` picks where the per-stage files
/// live (default `out/ckpt`), and `--resume` restarts each training
/// stage from its checkpoint when one exists.
///
/// # Errors
///
/// Returns a message for malformed flag values.
pub fn recovery_from_args() -> Result<road_decals::experiments::ExperimentRecovery, String> {
    let checkpoint_every: u64 = arg("--checkpoint-every", 0)?;
    let dir: String = arg("--checkpoint-dir", "out/ckpt".to_owned())?;
    let resume = flag("--resume");
    let checkpoint_dir = (checkpoint_every > 0 || resume).then(|| std::path::PathBuf::from(dir));
    Ok(road_decals::experiments::ExperimentRecovery {
        checkpoint_every,
        checkpoint_dir,
        resume,
    })
}

/// Runs a repro binary's body under the job supervisor when the
/// supervision switches are present: `--deadline-secs N` bounds the
/// whole run's wall clock (enforced cooperatively at step and frame
/// boundaries) and `--max-retries N` re-runs the body after a crash,
/// each attempt on a fresh quarantine-isolated
/// [`rd_tensor::Runtime`]. Without either switch the body runs
/// directly on the caller's runtime, exactly as before.
///
/// The body should parse its own flags and call [`setup_substrate`] /
/// [`report_substrate`] itself, so thread caps and profiling apply to
/// the runtime the supervised attempt actually executes on.
///
/// # Errors
///
/// Returns the body's error, a deadline-exceeded message, or the last
/// failure after the retry budget is exhausted.
pub fn run_supervised<F>(name: &str, body: F) -> Result<(), String>
where
    F: FnMut() -> Result<(), String>,
{
    let deadline_secs: u64 = arg("--deadline-secs", 0)?;
    let max_retries: u32 = arg("--max-retries", 0)?;
    let threads: usize = arg("--threads", 0)?;
    road_decals::supervise_main(name, deadline_secs, max_retries, threads, body)
}

/// Applies the substrate switches every repro binary accepts:
/// `--threads N` caps the tensor worker pool (`0` = one worker per
/// host core) and `--profile` turns on the per-op wall-clock profiler.
///
/// # Errors
///
/// Returns a message for malformed flag values.
pub fn setup_substrate() -> Result<(), String> {
    let threads: usize = arg("--threads", 0)?;
    rd_tensor::parallel::set_max_threads(threads);
    if flag("--profile") {
        rd_tensor::profile::reset();
        rd_tensor::profile::set_enabled(true);
    }
    Ok(())
}

/// Prints the per-op profiler report when `--profile` is on; with
/// `--profile-json PATH`, also writes the machine-readable histogram.
/// Call once at the end of `main`.
///
/// # Errors
///
/// Returns a message when the profile JSON cannot be written.
pub fn report_substrate() -> Result<(), String> {
    if !rd_tensor::profile::enabled() {
        return Ok(());
    }
    println!("\n{}", rd_tensor::profile::report_text());
    let path: String = arg("--profile-json", String::new())?;
    if !path.is_empty() {
        std::fs::write(&path, rd_tensor::profile::report_json())
            .map_err(|e| format!("cannot write profile json {path}: {e}"))?;
        println!("profile json written to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_have_expected_shapes() {
        assert_eq!(paper::table1().rows.len(), 4);
        assert_eq!(paper::table1().columns.len(), 8);
        assert_eq!(paper::table4().rows.len(), 6);
        for t in [
            paper::table3(),
            paper::table4(),
            paper::table5(),
            paper::table6(),
        ] {
            assert_eq!(t.columns.len(), 6);
        }
    }

    #[test]
    fn paper_table1_encodes_the_headline_result() {
        let t = paper::table1();
        let ours = t.cell("Ours (w/ 3 consecutive frames)", "fix").unwrap();
        let baseline = t.cell("[34]", "fix").unwrap();
        assert!(ours.pwc > baseline.pwc);
        assert!((ours.pwc - 0.92).abs() < 1e-6);
    }

    #[test]
    fn shape_checks_on_paper_tables_pass() {
        let t = paper::table1();
        let checks = vec![
            compare::row_near_zero(&t, "w/o Attack", 0.01),
            compare::row_dominates(
                &t,
                "Ours (w/ 3 consecutive frames)",
                "Ours (w/o 3 consecutive frames)",
            ),
            compare::row_dominates(&t, "Ours (w/o 3 consecutive frames)", "[34]"),
            compare::monotone_decreasing(
                &t,
                "Ours (w/ 3 consecutive frames)",
                &["slow", "normal", "fast"],
            ),
        ];
        assert!(checks.iter().all(|c| c.holds), "{checks:?}");
    }

    #[test]
    fn star_dominates_in_paper_table5() {
        let t = paper::table5();
        for other in ["triangle", "circle", "square"] {
            assert!(compare::row_dominates(&t, "star", other).holds);
        }
    }
}
