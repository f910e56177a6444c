//! Bitwise equivalence of the compiled training step with the tape.
//!
//! The contract enforced here is this PR's load-bearing invariant: a
//! full training run routed through the compiled
//! [`rd_tensor::TrainPlan`] produces **bitwise-identical** per-step
//! losses, parameter gradients and updated parameters (including the
//! batch-norm running statistics) to the reference tape path, at 1 and
//! at 4 worker-pool threads.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rd_detector::{DetectorTrainer, TinyYolo, TrainConfig, YoloConfig};
use rd_scene::dataset::{generate, DatasetConfig, Sample};
use rd_scene::CameraRig;
use rd_tensor::optim::StepOutcome;
use rd_tensor::{ParamSet, Runtime, RuntimeConfig};

fn smoke_data(n: usize) -> Vec<Sample> {
    generate(&DatasetConfig {
        rig: CameraRig::smoke(),
        n_images: n,
        seed: 77,
        augment: false,
    })
}

/// One complete training run; returns (per-step losses, first-step
/// parameter gradients as captured by the grad hook, final parameter
/// values).
type RunTrace = (Vec<f32>, Vec<Vec<f32>>, Vec<Vec<f32>>);

fn run(data: &[Sample], compiled: bool) -> RunTrace {
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 4,
        lr: 5e-4,
        compiled,
        ..TrainConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(5);
    let mut ps = ParamSet::new();
    let model = TinyYolo::new(&mut ps, &mut rng, YoloConfig::smoke());
    let grads: RefCell<Vec<Vec<f32>>> = RefCell::new(Vec::new());
    let hook = |step: u64, ps: &mut ParamSet| {
        if step == 0 {
            *grads.borrow_mut() = ps.iter().map(|(_, p)| p.grad().data().to_vec()).collect();
        }
    };
    let mut losses = Vec::new();
    let mut trainer = DetectorTrainer::new(&model, &mut ps, data, cfg);
    while !trainer.is_done() {
        match trainer.step(Some(&hook)) {
            StepOutcome::Ran { loss } => losses.push(loss),
            StepOutcome::NonFinite { detail } => panic!("unexpected non-finite step: {detail}"),
        }
    }
    drop(trainer);
    let params = ps.iter().map(|(_, p)| p.value().data().to_vec()).collect();
    (losses, grads.into_inner(), params)
}

#[test]
fn compiled_step_matches_tape_bitwise_at_1_and_4_threads() {
    let data = smoke_data(12);
    // reference trace at the default thread count
    let reference = run(&data, false);
    assert!(!reference.0.is_empty() && !reference.1.is_empty());
    for threads in [1usize, 4] {
        let (tape, compiled) = Runtime::new(RuntimeConfig {
            threads,
            ..RuntimeConfig::default()
        })
        .enter(|| (run(&data, false), run(&data, true)));
        assert_eq!(
            compiled.0, tape.0,
            "per-step losses diverged at {threads} thread(s)"
        );
        assert_eq!(
            compiled.1, tape.1,
            "first-step gradients diverged at {threads} thread(s)"
        );
        assert_eq!(
            compiled.2, tape.2,
            "updated parameters diverged at {threads} thread(s)"
        );
        assert_eq!(
            tape.2, reference.2,
            "tape run is thread-count dependent at {threads} thread(s)"
        );
        assert_eq!(
            compiled.2, reference.2,
            "compiled run is thread-count dependent at {threads} thread(s)"
        );
    }
}
