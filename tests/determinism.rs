//! Bitwise determinism of the parallel training substrate.
//!
//! Every parallel loop in `rd-tensor` partitions work into a fixed
//! number of groups (a function of problem size only) and reduces
//! per-group partials in group order on the calling thread, so results
//! must be **bitwise identical** at any worker-thread count. These
//! tests pin that contract, from a single conv kernel up to a full
//! attack-training run.

use rand::rngs::StdRng;
use rand::SeedableRng;

use road_decals_repro::attack as rd;
use road_decals_repro::detector::{TinyYolo, YoloConfig};
use road_decals_repro::scene::CameraRig;
use road_decals_repro::tensor::{Graph, ParamSet, Runtime, RuntimeConfig, Tensor};

/// Runs `f` on a fresh runtime with a `threads`-worker budget.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    Runtime::new(RuntimeConfig {
        threads,
        ..RuntimeConfig::default()
    })
    .enter(f)
}

fn conv_fwd_bwd() -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(11);
    let x_t = Tensor::randn(&mut rng, &[6, 3, 16, 16], 1.0);
    let w_t = Tensor::randn(&mut rng, &[8, 3, 3, 3], 0.3);
    let mut g = Graph::new();
    let x = g.input(x_t);
    let w = g.input(w_t);
    let y = g.conv2d(x, w, None, 1, 1);
    let p = g.max_pool2d(y, 2, 2, 0);
    let loss = g.sum_all(p);
    let grads = g.backward(loss);
    (
        g.value(y).data().to_vec(),
        grads.get(x).data().to_vec(),
        grads.get(w).data().to_vec(),
    )
}

#[test]
fn conv_forward_and_backward_are_bitwise_identical_across_threads() {
    let serial = with_threads(1, conv_fwd_bwd);
    for threads in [2, 4, 8] {
        let par = with_threads(threads, conv_fwd_bwd);
        assert_eq!(serial.0, par.0, "forward diverged at {threads} threads");
        assert_eq!(serial.1, par.1, "input grad diverged at {threads} threads");
        assert_eq!(serial.2, par.2, "weight grad diverged at {threads} threads");
    }
}

fn run_smoke_attack() -> rd::attack::TrainedDecal {
    let mut rng = StdRng::seed_from_u64(3);
    let mut ps_det = ParamSet::new();
    let detector = TinyYolo::new(&mut ps_det, &mut rng, YoloConfig::smoke());
    let scenario = rd::scenario::AttackScenario::parking_lot(CameraRig::smoke(), 2, 60, 16, 5);
    let cfg = rd::attack::AttackConfig {
        steps: 2,
        clips_per_batch: 1,
        ..rd::attack::AttackConfig::smoke()
    };
    rd::attack::train_decal_attack(&scenario, &detector, &mut ps_det, &cfg)
}

#[test]
fn attack_training_is_bitwise_identical_across_threads() {
    let serial = with_threads(1, run_smoke_attack);
    let parallel_run = with_threads(4, run_smoke_attack);
    assert_eq!(
        serial.attack_loss, parallel_run.attack_loss,
        "attack-loss curve diverged"
    );
    assert_eq!(
        serial.adv_loss, parallel_run.adv_loss,
        "adv-loss curve diverged"
    );
    assert_eq!(
        serial.decal.channel_data(),
        parallel_run.decal.channel_data(),
        "trained decal diverged"
    );
}
