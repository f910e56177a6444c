//! Fast-tier equivalence on the full detector.
//!
//! * On a randomized detector, the f32x8 tier's head outputs must stay
//!   within the static `f32x8-fma` ulp certificate of the reference
//!   tier, and the reference tier must stay bitwise equal to the tape.
//! * On the trained smoke detector, the two tiers must make the same
//!   decisions: the same decoded detections and bitwise mAP on rendered
//!   frames, and the same PWC, CWC and victim rate on a decal drive.
//!   The gate asserts that it compares real detections, and a self-test
//!   shows it fails when a single objectness logit crosses the
//!   confidence threshold.
//!
//! Each test runs its tiers on their own [`Runtime`]s, so the tests can
//! share a process.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rd_analysis::{certify_logit_bounds, KernelModel};
use rd_detector::map::mean_average_precision;
use rd_detector::{postprocess, Detection, TinyYolo, YoloConfig};
use rd_scene::dataset::{generate, DatasetConfig, Sample};
use rd_scene::{CameraRig, ObjectClass, RotationSetting};
use rd_tensor::{runtime, Graph, ParamSet, Runtime, RuntimeConfig, Tensor, Tier};
use rd_vision::shapes::{mask, Shape};
use rd_vision::{Image, Plane};
use road_decals::experiments::{prepare_environment, Environment, Scale};
use road_decals::{
    deploy, evaluate_challenge, AttackScenario, Challenge, ChallengeOutcome, Decal, EvalConfig,
};

/// Smoke-scale detector with every parameter randomized (running
/// variances kept positive), as in the infer equivalence suite.
fn random_model(seed: u64) -> (TinyYolo, ParamSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let model = TinyYolo::new(&mut ps, &mut rng, YoloConfig::smoke());
    for (_, p) in ps.iter_mut() {
        let rvar = p.name().ends_with(".rvar");
        for v in p.value_mut().data_mut() {
            let r: f32 = rng.gen_range(-0.5..0.5);
            *v = if rvar { 0.1 + (r + 0.5) } else { *v + r };
        }
    }
    (model, ps)
}

fn runtime(tier: Tier, threads: usize) -> Runtime {
    Runtime::new(RuntimeConfig {
        threads,
        tier,
        profiling: false,
    })
}

#[test]
fn fast_tier_stays_within_the_static_certificate() {
    let (model, ps) = random_model(2024);
    let mut rng = StdRng::seed_from_u64(99);
    let n = 3;
    // Rendered frames are normalized RGB in [0, 1] — the same input box
    // the certificate is computed over.
    let data: Vec<f32> = (0..n * 3 * 64 * 64)
        .map(|_| rng.gen_range(0.0..1.0))
        .collect();
    let x = Tensor::from_vec(data, &[n, 3, 64, 64]);

    let meta = model.infer_plan(&ps).meta();
    let bounds = certify_logit_bounds(&meta, &ps, 0.0, 1.0, &KernelModel::f32x8_fma())
        .expect("detector inference plan must certify a f32x8-fma bound");
    assert_eq!(bounds.len(), 2, "one bound per head");
    for b in &bounds {
        assert!(b.max_abs_err.is_finite() && b.max_abs_err > 0.0);
    }

    // Reference tier (the default): bitwise equal to the tape.
    assert_eq!(runtime::current().tier(), Tier::Reference);
    let (rc, rf) = model.infer(&ps, &x);
    let mut g = Graph::new();
    let xv = g.input(x.clone());
    let out = model.forward_frozen(&mut g, &ps, xv);
    assert_eq!(g.value(out.coarse).data(), rc.data());
    assert_eq!(g.value(out.fine).data(), rf.data());

    // Fast tier: each head within its certified max-abs divergence.
    let (fc, ff) = runtime(Tier::Fast, 0).enter(|| model.infer(&ps, &x));

    for (root, (refh, fasth)) in [(&rc, &fc), (&rf, &ff)].into_iter().enumerate() {
        let cert = bounds[root].max_abs_err;
        let mut worst = 0.0f64;
        for (&a, &b) in refh.data().iter().zip(fasth.data()) {
            worst = worst.max((a as f64 - b as f64).abs());
        }
        assert!(
            worst <= cert,
            "head {root}: observed divergence {worst:.3e} exceeds certificate {cert:.3e}"
        );
    }

    // Decoded detections must not drift: same count, class, head and
    // near-identical boxes per image.
    let nc = model.config().num_classes;
    let dref = postprocess(&rc, &rf, nc, 0.25, 0.45);
    let dfast = postprocess(&fc, &ff, nc, 0.25, 0.45);
    assert_eq!(dref.len(), dfast.len());
    for (img_r, img_f) in dref.iter().zip(&dfast) {
        assert_eq!(img_r.len(), img_f.len(), "detection count drifted");
        for (a, b) in img_r.iter().zip(img_f) {
            assert_eq!(a.class, b.class);
            assert_eq!(a.head, b.head);
            for (pa, pb) in [(a.cx, b.cx), (a.cy, b.cy), (a.w, b.w), (a.h, b.h)] {
                assert!((pa - pb).abs() <= 1e-4, "box drifted: {pa} vs {pb}");
            }
        }
    }
}

/// The objectness threshold and NMS IoU the drift gate decodes at: the
/// evaluation defaults.
const CONF: f32 = 0.35;
const NMS_IOU: f32 = 0.45;

/// The committed trained smoke detector and 32 labelled frames in
/// 16-frame batches.
fn trained_detector_and_frames() -> (Environment, Vec<Sample>, Vec<Tensor>) {
    let env = prepare_environment(Scale::Smoke, 42);
    let frames = generate(&DatasetConfig {
        rig: CameraRig::smoke(),
        n_images: 32,
        seed: 11,
        augment: false,
    });
    let batches = frames
        .chunks(16)
        .map(|c| Image::batch_to_tensor(&c.iter().map(|s| s.image.clone()).collect::<Vec<_>>()))
        .collect();
    (env, frames, batches)
}

/// Both heads of every batch, inferred under `rt`.
fn heads_on(rt: &Runtime, env: &Environment, batches: &[Tensor]) -> Vec<(Tensor, Tensor)> {
    rt.enter(|| {
        batches
            .iter()
            .map(|b| env.detector.infer(&env.params, b))
            .collect()
    })
}

/// The drift gate on labelled frames: decodes both runs' heads, then
/// requires the same detections on every frame (count, and each
/// detection's class, head, anchor and cell, in confidence order) and a
/// bitwise-equal mAP. Returns the reference mAP and detection count.
fn compare_decoded(
    reference: &[(Tensor, Tensor)],
    candidate: &[(Tensor, Tensor)],
    frames: &[Sample],
    num_classes: usize,
) -> Result<(f32, usize), String> {
    let decode = |heads: &[(Tensor, Tensor)]| -> Vec<Vec<Detection>> {
        heads
            .iter()
            .flat_map(|(c, f)| postprocess(c, f, num_classes, CONF, NMS_IOU))
            .collect()
    };
    let (dref, dcand) = (decode(reference), decode(candidate));
    if dref.len() != dcand.len() {
        return Err(format!("{} vs {} frames", dref.len(), dcand.len()));
    }
    let key = |d: &Detection| (d.class, d.head, d.anchor, d.cell);
    for (i, (a, b)) in dref.iter().zip(&dcand).enumerate() {
        if a.len() != b.len() || a.iter().map(key).ne(b.iter().map(key)) {
            return Err(format!(
                "decoded detections drifted on frame {i} ({} vs {} detections)",
                a.len(),
                b.len()
            ));
        }
    }
    let count = dref.iter().map(Vec::len).sum();
    let map = |dets: Vec<Vec<Detection>>| {
        let labelled: Vec<_> = dets
            .into_iter()
            .zip(frames)
            .map(|(d, s)| (d, s.boxes.clone()))
            .collect();
        mean_average_precision(&labelled, 0.5)
    };
    let (map_ref, map_cand) = (map(dref), map(dcand));
    if map_ref.to_bits() != map_cand.to_bits() {
        return Err(format!("mAP drifted: {map_ref} vs {map_cand}"));
    }
    Ok((map_ref, count))
}

/// One star-decal slight-rotation drive: two runs of 40 frames (two
/// full chunks and a partial one each).
fn star_drive(rt: &Runtime, env: &Environment) -> ChallengeOutcome {
    let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 4, 60, 16, 42);
    let star = Decal::mono(
        &Plane::new(16, 16, 0.03),
        mask(Shape::Star, 16),
        Shape::Star,
    );
    let cfg = EvalConfig {
        rotation_frames: 40,
        runs: 2,
        ..EvalConfig::smoke(7)
    };
    rt.enter(|| {
        evaluate_challenge(
            &scenario,
            &deploy(&star, &scenario),
            &env.detector,
            &env.params,
            ObjectClass::Bicycle,
            Challenge::Rotation(RotationSetting::Slight),
            &cfg,
        )
    })
}

fn bits(heads: &[(Tensor, Tensor)]) -> Vec<Vec<u32>> {
    heads
        .iter()
        .flat_map(|(c, f)| [c, f])
        .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn trained_detector_decisions_do_not_drift_between_tiers() {
    let (env, frames, batches) = trained_detector_and_frames();
    let nc = env.detector.config().num_classes;
    let reference = runtime(Tier::Reference, 2);
    let (fast_1, fast_2) = (runtime(Tier::Fast, 1), runtime(Tier::Fast, 2));

    let ref_heads = heads_on(&reference, &env, &batches);
    let fast_heads = heads_on(&fast_1, &env, &batches);
    assert!(
        bits(&fast_heads) == bits(&heads_on(&fast_2, &env, &batches)),
        "fast-tier heads differ between 1 and 2 threads"
    );
    let (map, detections) = compare_decoded(&ref_heads, &fast_heads, &frames, nc)
        .unwrap_or_else(|e| panic!("reference vs fast tier: {e}"));
    // the gate must compare real detections, not an empty detector's zeros
    assert!(map > 0.0, "mAP {map} on the trained detector");
    assert!(detections > 0, "no detections at conf {CONF}");

    let drive_ref = star_drive(&reference, &env);
    let drive_fast = star_drive(&fast_1, &env);
    assert!(drive_ref.victim_detected > 0.0, "{drive_ref:?}");
    assert_eq!(drive_ref.cell.pwc, drive_fast.cell.pwc, "PWC drifted");
    assert_eq!(drive_ref.cell.cwc, drive_fast.cell.cwc, "CWC drifted");
    assert_eq!(
        drive_ref.victim_detected, drive_fast.victim_detected,
        "victim rate drifted"
    );
    assert_eq!(
        drive_fast,
        star_drive(&fast_2, &env),
        "fast-tier drive differs between 1 and 2 threads"
    );
}

#[test]
fn tier_drift_gate_fails_on_one_flipped_objectness_logit() {
    let (env, frames, batches) = trained_detector_and_frames();
    let nc = env.detector.config().num_classes;
    let heads = heads_on(&runtime(Tier::Reference, 2), &env, &batches);
    assert!(compare_decoded(&heads, &heads, &frames, nc).is_ok());

    // the strongest detection of the first frame that has one, pushed
    // just under the objectness threshold
    let (batch, sample, top) = heads
        .iter()
        .enumerate()
        .flat_map(|(b, (c, f))| {
            postprocess(c, f, nc, CONF, NMS_IOU)
                .into_iter()
                .enumerate()
                .map(move |(s, dets)| (b, s, dets))
        })
        .find_map(|(b, s, dets)| dets.into_iter().next().map(|d| (b, s, d)))
        .expect("the trained detector detects something");
    let mut flipped = heads.clone();
    let (coarse, fine) = &mut flipped[batch];
    let head = if top.head == 0 { coarse } else { fine };
    let (ch, side) = (head.shape()[1], head.shape()[2]);
    let channel = top.anchor * (5 + nc) + 4;
    let (cy, cx) = top.cell;
    let at = ((sample * ch + channel) * side + cy) * side + cx;
    let threshold = (CONF / (1.0 - CONF)).ln();
    assert!(
        head.data()[at] >= threshold,
        "a detection sits at or above it"
    );
    head.data_mut()[at] = threshold - 0.1;

    assert!(
        compare_decoded(&heads, &flipped, &frames, nc).is_err(),
        "one objectness logit crossed the threshold, yet the gate passed"
    );
}
