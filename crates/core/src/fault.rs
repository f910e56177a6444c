//! Deterministic fault injection for the recovery test suite.
//!
//! A [`FaultPlan`] scripts failures into a training run at exact,
//! reproducible points: NaNs planted in chosen gradients, a simulated
//! process kill at step N, a hard panic at step N, a stall (sleep) at
//! step N, and corruption (truncation, bit-flips, torn writes) of
//! checkpoint bytes as they are written. Everything is driven by the
//! plan's seed, so a failing recovery test replays identically.
//!
//! The plan plugs into [`crate::runner::TrainRunner`]: gradient faults
//! arrive through the trainers' [`rd_detector::GradHook`] (after
//! clipping, before the finiteness check), kills/panics/stalls are
//! checked before each step, and checkpoint corruption is applied to
//! the encoded bytes of the Nth write. The panic and stall faults exist
//! for the [`crate::supervisor`] containment tests: a supervised job
//! sabotaged this way must not disturb its sibling jobs.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rd_tensor::ParamSet;

/// How to damage a checkpoint's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptMode {
    /// Chop the file down hard — may cut into the header itself.
    Truncate,
    /// Flip one bit inside the payload (CRC must catch it).
    BitFlip,
    /// Keep the header intact but stop mid-payload, as a non-atomic
    /// writer would after a crash between `write` and `fsync`.
    TornWrite,
}

/// One scripted gradient fault: plant a NaN whenever `step` executes,
/// up to `times` firings (retries of a rolled-back step re-trigger it
/// unless `times` limits that).
#[derive(Debug)]
struct NanFault {
    step: u64,
    times: u32,
    fired: AtomicU32,
}

/// A deterministic schedule of faults to inject into a training run.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    nan_faults: Vec<NanFault>,
    kill_at: Option<u64>,
    panic_at: Option<u64>,
    stall: Option<(u64, Duration)>,
    corrupt: Option<(usize, CorruptMode)>,
}

impl FaultPlan {
    /// An empty plan; `seed` drives which gradient element NaNs land on.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Plants a NaN in one gradient element every time `step` executes
    /// (so a rolled-back retry of that step diverges again, and LR
    /// backoff must exhaust into a skip).
    pub fn nan_at(mut self, step: u64) -> Self {
        self.nan_faults.push(NanFault {
            step,
            times: u32::MAX,
            fired: AtomicU32::new(0),
        });
        self
    }

    /// Plants a NaN only the first `times` executions of `step` — a
    /// transient blow-up that a rollback + LR backoff can ride out.
    pub fn nan_at_times(mut self, step: u64, times: u32) -> Self {
        self.nan_faults.push(NanFault {
            step,
            times,
            fired: AtomicU32::new(0),
        });
        self
    }

    /// Simulates a process kill when the runner reaches `step` (before
    /// the step executes).
    pub fn kill_at(mut self, step: u64) -> Self {
        self.kill_at = Some(step);
        self
    }

    /// Corrupts the `nth` checkpoint write (0-based) with `mode`.
    pub fn corrupt_checkpoint(mut self, nth: usize, mode: CorruptMode) -> Self {
        self.corrupt = Some((nth, mode));
        self
    }

    /// Panics the worker thread when the runner reaches `step` (before
    /// the step executes) — the supervisor's panic-isolation fault.
    pub fn panic_at(mut self, step: u64) -> Self {
        self.panic_at = Some(step);
        self
    }

    /// Stalls (sleeps) for `dur` when the runner reaches `step`, to push
    /// a supervised job past its deadline. The runner sleeps in small
    /// cancellable slices, so a tripped deadline ends the stall early.
    pub fn stall_at(mut self, step: u64, dur: Duration) -> Self {
        self.stall = Some((step, dur));
        self
    }

    /// Whether the runner should panic at `step`.
    pub fn should_panic(&self, step: u64) -> bool {
        self.panic_at == Some(step)
    }

    /// The stall duration scheduled for `step`, if any.
    pub fn stall_for(&self, step: u64) -> Option<Duration> {
        match self.stall {
            Some((s, d)) if s == step => Some(d),
            _ => None,
        }
    }

    /// Whether any gradient faults are scheduled (lets the runner skip
    /// installing a hook entirely on healthy runs).
    pub fn has_grad_faults(&self) -> bool {
        !self.nan_faults.is_empty()
    }

    /// Whether the runner should simulate a kill at `step`.
    pub fn should_kill(&self, step: u64) -> bool {
        self.kill_at == Some(step)
    }

    /// Gradient-hook body: plants scheduled NaNs for `step` into one
    /// seed-chosen element of one seed-chosen parameter's gradient.
    pub fn apply_grads(&self, step: u64, ps: &mut ParamSet) {
        for fault in &self.nan_faults {
            if fault.step != step {
                continue;
            }
            if fault.fired.fetch_add(1, Ordering::Relaxed) >= fault.times {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(self.seed ^ step.wrapping_mul(0x9E37_79B9));
            let n = ps.len();
            if n == 0 {
                return;
            }
            let target = (rng.next_u64() % n as u64) as usize;
            let (_, p) = ps.iter_mut().nth(target).expect("index in range");
            let grad = p.grad_mut().data_mut();
            let elem = (rng.next_u64() % grad.len().max(1) as u64) as usize;
            grad[elem] = f32::NAN;
        }
    }

    /// Applies the scheduled corruption to the bytes of checkpoint write
    /// number `write_index`, returning the mode applied (if any).
    pub fn corrupt_bytes(&self, write_index: usize, bytes: &mut Vec<u8>) -> Option<CorruptMode> {
        let (nth, mode) = self.corrupt?;
        if nth != write_index {
            return None;
        }
        match mode {
            CorruptMode::Truncate => {
                // hard chop, well inside the header
                bytes.truncate(bytes.len().min(11));
            }
            CorruptMode::BitFlip => {
                let mut rng = StdRng::seed_from_u64(self.seed ^ 0xB17F);
                // flip inside the payload (past the 20-byte header) so
                // the CRC — not the header parse — must catch it
                if bytes.len() > 21 {
                    let span = bytes.len() - 20;
                    let at = 20 + (rng.next_u64() % span as u64) as usize;
                    let bit = (rng.next_u64() % 8) as u32;
                    bytes[at] ^= 1u8 << bit;
                }
            }
            CorruptMode::TornWrite => {
                // header survives, payload stops partway
                if bytes.len() > 20 {
                    let keep = 20 + (bytes.len() - 20) / 2;
                    bytes.truncate(keep);
                }
            }
        }
        Some(mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_tensor::io::{decode_checkpoint, encode_checkpoint, Checkpoint, CheckpointError};
    use rd_tensor::Tensor;

    fn sample_ps() -> ParamSet {
        let mut ps = ParamSet::new();
        ps.register("a", Tensor::zeros(&[4]));
        ps.register("b", Tensor::zeros(&[2, 3]));
        ps
    }

    #[test]
    fn nan_injection_is_deterministic_and_step_scoped() {
        let plan = FaultPlan::new(3).nan_at(5);
        let mut ps1 = sample_ps();
        let mut ps2 = sample_ps();
        plan.apply_grads(4, &mut ps1);
        assert!(ps1
            .iter()
            .all(|(_, p)| p.grad().data().iter().all(|v| v.is_finite())));
        plan.apply_grads(5, &mut ps1);
        let plan2 = FaultPlan::new(3).nan_at(5);
        plan2.apply_grads(5, &mut ps2);
        let nan_pos = |ps: &ParamSet| -> Vec<(String, usize)> {
            ps.iter()
                .flat_map(|(_, p)| {
                    let name = p.name().to_owned();
                    p.grad()
                        .data()
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| v.is_nan())
                        .map(move |(i, _)| (name.clone(), i))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        let p1 = nan_pos(&ps1);
        assert_eq!(p1.len(), 1, "exactly one element is poisoned");
        assert_eq!(p1, nan_pos(&ps2), "same seed, same target");
    }

    #[test]
    fn nan_once_fires_limited_times() {
        let plan = FaultPlan::new(0).nan_at_times(2, 1);
        let mut ps = sample_ps();
        plan.apply_grads(2, &mut ps);
        let poisoned = ps
            .iter()
            .any(|(_, p)| p.grad().data().iter().any(|v| v.is_nan()));
        assert!(poisoned);
        let mut ps = sample_ps();
        plan.apply_grads(2, &mut ps); // second firing: exhausted
        let poisoned = ps
            .iter()
            .any(|(_, p)| p.grad().data().iter().any(|v| v.is_nan()));
        assert!(!poisoned);
    }

    #[test]
    fn corruption_modes_produce_detectable_damage() {
        let mut ck = Checkpoint::new();
        ck.put_u64s("xs", vec![42; 64]);
        let clean = encode_checkpoint(&ck);
        assert!(decode_checkpoint(&clean).is_ok());

        let tests = [
            (CorruptMode::Truncate, "truncate"),
            (CorruptMode::BitFlip, "bitflip"),
            (CorruptMode::TornWrite, "torn"),
        ];
        for (mode, label) in tests {
            let plan = FaultPlan::new(7).corrupt_checkpoint(0, mode);
            let mut bytes = clean.clone();
            // write 0 is hit, write 1 is not
            assert_eq!(plan.corrupt_bytes(1, &mut bytes.clone()), None);
            assert_eq!(plan.corrupt_bytes(0, &mut bytes), Some(mode));
            let err = decode_checkpoint(&bytes).expect_err(label);
            match mode {
                CorruptMode::BitFlip => {
                    assert!(
                        matches!(err, CheckpointError::CrcMismatch { .. }),
                        "{label}: {err}"
                    )
                }
                _ => assert!(
                    matches!(err, CheckpointError::Truncated { .. }),
                    "{label}: {err}"
                ),
            }
        }
    }

    #[test]
    fn kill_schedule() {
        let plan = FaultPlan::new(0).kill_at(10);
        assert!(!plan.should_kill(9));
        assert!(plan.should_kill(10));
        assert!(!plan.should_kill(11));
    }

    #[test]
    fn panic_and_stall_schedules_are_step_scoped() {
        let plan = FaultPlan::new(0)
            .panic_at(3)
            .stall_at(4, Duration::from_millis(250));
        assert!(!plan.should_panic(2));
        assert!(plan.should_panic(3));
        assert_eq!(plan.stall_for(3), None);
        assert_eq!(plan.stall_for(4), Some(Duration::from_millis(250)));
    }
}
