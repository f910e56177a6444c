//! Trains the scaled YOLOv3-tiny on the procedural road dataset and
//! reports detection metrics — the reproduction's analogue of the paper's
//! fine-tuning step ("we fine-tune the pre-trained object detector on our
//! dataset with five labels").
//!
//! ```text
//! cargo run --release -p rd-detector --example train_detector -- \
//!     [--images 600] [--epochs 6] [--out out/detector.rdw] [--audit] \
//!     [--threads N] [--profile] [--profile-json PATH] [--no-compiled] \
//!     [--checkpoint-every N] [--checkpoint out/detector.rdc] [--resume] \
//!     [--deadline-secs N] [--max-retries N]
//! ```
//!
//! `--audit` statically validates the model's wiring before training and
//! scans a post-training forward tape for non-finite values.
//! `--no-compiled` runs the reference autograd-tape training step
//! instead of the compiled `TrainPlan` (bitwise-identical, slower).
//! `--threads`, `--profile`, `--profile-json`, `--deadline-secs` and
//! `--max-retries` are the switches every CLI program takes through
//! `rd_bench::main` (`--profile-json PATH` profiles the run on its own,
//! without `--profile`); combine the last two with `--checkpoint-every`
//! and `--resume` so retries pick up at the last checkpoint.
//!
//! `--checkpoint-every N` atomically writes the full training state
//! (weights, Adam moments, RNG position, epoch/batch cursors) every N
//! steps; `--resume` picks a killed run back up from that file and — the
//! training loop being deterministic — finishes bitwise-identically to an
//! uninterrupted run.

use std::error::Error;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use rd_bench::{arg, flag};
use rd_detector::{evaluate, DetectorTrainer, TinyYolo, TrainConfig, YoloConfig};
use rd_scene::dataset::{generate, DatasetConfig};
use rd_scene::CameraRig;
use rd_tensor::optim::StepOutcome;
use rd_tensor::{io, ParamSet};

fn main() -> ExitCode {
    rd_bench::main("train_detector", run_body)
}

fn run_body() -> Result<(), Box<dyn Error>> {
    let n_images: usize = arg("--images", 600)?;
    let epochs: usize = arg("--epochs", 6)?;
    let out: String = arg("--out", "out/detector.rdw".to_owned())?;
    let ck_every: u64 = arg("--checkpoint-every", 0)?;
    let ck_path: String = arg("--checkpoint", "out/detector.rdc".to_owned())?;
    let resume = flag("--resume");
    let audit = flag("--audit");

    let rig = CameraRig::standard();
    println!("generating {n_images} training images...");
    let t0 = Instant::now();
    let train_set = generate(&DatasetConfig {
        rig,
        n_images,
        seed: 1234,
        augment: true,
    });
    let test_set = generate(&DatasetConfig::paper_test(1234));
    println!("  done in {:.1}s", t0.elapsed().as_secs_f32());

    let mut rng = StdRng::seed_from_u64(7);
    let mut ps = ParamSet::new();
    let model = TinyYolo::new(&mut ps, &mut rng, YoloConfig::standard());
    println!("model: {} parameters", ps.num_scalars());
    if audit {
        if let Err(issues) = model.validate(&ps, 16) {
            return Err(format!(
                "model wiring is inconsistent:\n{}",
                issues
                    .iter()
                    .map(|i| format!("  {i}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            )
            .into());
        }
        println!("audit: model wiring validated before training");
    }

    let cfg = TrainConfig {
        epochs,
        batch_size: 16,
        lr: 1e-3,
        seed: 7,
        clip: 10.0,
        log_every: 0,
        compiled: !flag("--no-compiled"),
    };
    let t0 = Instant::now();
    let mut trainer = DetectorTrainer::new(&model, &mut ps, &train_set, cfg);
    if resume && Path::new(&ck_path).exists() {
        let ck = io::load_checkpoint_file(&ck_path)
            .map_err(|e| format!("cannot resume from {ck_path}: {e}"))?;
        trainer
            .restore(&ck)
            .map_err(|e| format!("cannot resume from {ck_path}: {e}"))?;
        println!(
            "resumed from {ck_path} at step {} of {}",
            trainer.steps_done(),
            trainer.total_steps()
        );
    }
    if ck_every > 0 {
        if let Some(dir) = Path::new(&ck_path).parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create checkpoint dir: {e}"))?;
        }
    }
    while !trainer.is_done() {
        // cooperative deadline/cancel check at the step boundary
        rd_tensor::runtime::check_cancelled()
            .map_err(|c| format!("stopped at step {}: {c}", trainer.steps_done()))?;
        if let StepOutcome::NonFinite { detail } = trainer.step(None) {
            eprintln!(
                "skipping diverged batch at step {}: {detail}",
                trainer.steps_done()
            );
            trainer.skip_step();
        }
        if ck_every > 0 && trainer.steps_done().is_multiple_of(ck_every) {
            io::save_checkpoint_file(&trainer.checkpoint(), &ck_path)
                .map_err(|e| format!("cannot write checkpoint {ck_path}: {e}"))?;
        }
    }
    let report = trainer.finish();
    println!(
        "trained {epochs} epochs in {:.1}s; losses: {:?}",
        t0.elapsed().as_secs_f32(),
        report
            .epoch_losses
            .iter()
            .map(|l| (l * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    if audit {
        // run one eval forward pass and check every tape value is finite
        let mut g = rd_tensor::Graph::new();
        let x = g.input(test_set[0].image.to_tensor());
        let _ = model.forward(&mut g, &mut ps, x, false);
        match rd_analysis::audit_non_finite(&g) {
            Some(report) => eprintln!("audit: post-training tape is unhealthy\n{report}"),
            None => println!("audit: post-training forward tape is fully finite"),
        }
    }

    let m = evaluate(&model, &ps, &test_set, 0.3);
    println!(
        "test: recall {:.2}  class-accuracy {:.2}  mean-IoU {:.2}  dets/img {:.1}",
        m.recall, m.class_accuracy, m.mean_iou, m.dets_per_image
    );

    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create output dir: {e}"))?;
    }
    io::save_params_file(&ps, &out).map_err(|e| format!("cannot save weights to {out}: {e}"))?;
    println!("weights saved to {out}");
    Ok(())
}
