//! Plan-analyzer integration tests: clean audits over every real plan,
//! mutation tests proving each lint fires at the exact op path, and
//! soundness checks for the static ulp-error certificates.
//!
//! The mutation half is the analyzer's negative-path coverage demanded
//! by ISSUE 6: a lint that never fires is indistinguishable from a lint
//! that cannot fire, so every [`Corruption`] is applied to a freshly
//! lifted real plan and the *intended* [`PlanLintKind`] must be
//! reported at the *corrupted op's* path — not merely somewhere.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rd_analysis::{
    audit_plan, certify_logit_bounds, liveness, plan_mutate, Corruption, KernelModel, PlanIr,
    PlanLintKind,
};
use rd_detector::{TinyYolo, YoloConfig};
use rd_gan::{Discriminator, GanConfig, Generator};
use rd_tensor::{
    ConvGeom, Graph, ParamRef, ParamRole, ParamSet, PlanKind, PlanMeta, PlanOpMeta, SlotMeta,
    Tensor,
};

/// Smoke-scale detector with fully randomized parameters (running
/// variances kept positive), as in the infer/train equivalence tests.
fn random_detector(seed: u64) -> (TinyYolo, ParamSet) {
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

fn gan_models(seed: u64) -> (Generator, Discriminator, ParamSet, ParamSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = GanConfig::default();
    let mut ps_g = ParamSet::new();
    let mut ps_d = ParamSet::new();
    let gen = Generator::new(&mut ps_g, &mut rng, cfg);
    let disc = Discriminator::new(&mut ps_d, &mut rng, cfg);
    (gen, disc, ps_g, ps_d)
}

/// `path#index` anchor the analyzer reports for op `oi`.
fn anchor(meta: &PlanMeta, oi: usize) -> String {
    format!("{}#{oi}", meta.ops[oi].path)
}

/// Asserts that auditing `meta` yields at least one `kind` finding at
/// exactly `path`, and returns all findings for further inspection.
fn assert_fires(meta: &PlanMeta, ps: &ParamSet, kind: PlanLintKind, path: &str) {
    let issues = audit_plan(meta, ps);
    assert!(
        issues.iter().any(|i| i.kind == kind && i.path == path),
        "expected a {kind:?} finding at `{path}`, got: {:?}",
        issues.iter().map(|i| i.to_string()).collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------------
// positive paths: every real plan audits clean
// ---------------------------------------------------------------------

#[test]
fn every_real_plan_audits_clean() {
    let (det, ps_det) = random_detector(11);
    let (gen, disc, ps_g, ps_d) = gan_models(12);
    let plans = [
        ("detector/infer", det.infer_plan(&ps_det).meta(), &ps_det),
        ("detector/train", det.train_plan(&ps_det).meta(), &ps_det),
        ("detector/grad", det.grad_plan(&ps_det).meta(), &ps_det),
        ("gan/generator", gen.infer_plan(&ps_g).meta(), &ps_g),
        ("gan/discriminator", disc.infer_plan(&ps_d).meta(), &ps_d),
    ];
    for (tag, meta, ps) in &plans {
        let issues = audit_plan(meta, ps);
        assert!(
            issues.is_empty(),
            "{tag}: expected a clean audit, got: {:?}",
            issues.iter().map(|i| i.to_string()).collect::<Vec<_>>()
        );
    }
    // No orphans: every parameter of each set is reachable from its
    // compiled plans.
    let det_metas: Vec<&PlanMeta> = plans[..3].iter().map(|(_, m, _)| m).collect();
    assert!(rd_analysis::orphan_params(&det_metas, &ps_det).is_empty());
    assert!(rd_analysis::orphan_params(&[&plans[3].1], &ps_g).is_empty());
    assert!(rd_analysis::orphan_params(&[&plans[4].1], &ps_d).is_empty());
}

#[test]
fn infer_and_grad_plans_agree_op_for_op() {
    // Both plans lower the eval forward's trace through the one lowering; only
    // the engine-specific fields may differ.
    let (det, ps) = random_detector(19);
    let infer = det.infer_plan(&ps).meta();
    let grad = det.grad_plan(&ps).meta();
    assert_eq!((infer.kind, grad.kind), (PlanKind::Infer, PlanKind::Train));
    assert_eq!((infer.col_budget, grad.col_budget.is_some()), (None, true));
    assert_eq!(infer.slots, grad.slots);
    assert_eq!(infer.input_slot, grad.input_slot);
    assert_eq!(infer.outputs, grad.outputs);
    assert_eq!(infer.ops.len(), grad.ops.len());
    for (i, g) in infer.ops.iter().zip(&grad.ops) {
        assert_eq!(
            i.path.strip_prefix("infer/"),
            g.path.strip_prefix("train/"),
            "path prefixes"
        );
        assert_eq!(i.gx_direct, None, "{}", i.path);
        assert_eq!(g.gx_direct.is_some(), g.conv.is_some(), "{}", g.path);
        let strip = |o: &PlanOpMeta| PlanOpMeta {
            path: String::new(),
            gx_direct: None,
            ..o.clone()
        };
        assert_eq!(strip(i), strip(g), "{}", i.path);
    }
}

/// FNV-1a over a string's bytes.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins the structure of all 8 plans the models cache, as an FNV digest
/// of each `PlanMeta`'s `Debug` form. A change that moves any compiled
/// plan must update its pin here and say why in CHANGES.md.
#[test]
fn cached_plan_structure_is_pinned() {
    let mut metas: Vec<(String, PlanMeta)> = Vec::new();
    for (scale, cfg) in [
        ("smoke", YoloConfig::smoke()),
        ("standard", YoloConfig::standard()),
    ] {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamSet::new();
        let det = TinyYolo::new(&mut ps, &mut rng, cfg);
        metas.push((
            format!("detector/{scale}/infer"),
            det.infer_plan(&ps).meta(),
        ));
        metas.push((
            format!("detector/{scale}/train"),
            det.train_plan(&ps).meta(),
        ));
        metas.push((format!("detector/{scale}/grad"), det.grad_plan(&ps).meta()));
    }
    let (gen, disc, ps_g, ps_d) = gan_models(1);
    metas.push(("gan/generator".into(), gen.infer_plan(&ps_g).meta()));
    metas.push(("gan/discriminator".into(), disc.infer_plan(&ps_d).meta()));
    let pins: [(&str, u64); 8] = [
        ("detector/smoke/infer", 0xb878_f130_1dde_a2eb),
        ("detector/smoke/train", 0x1de2_6b78_e27f_2502),
        ("detector/smoke/grad", 0xcf02_1496_f514_87bc),
        ("detector/standard/infer", 0x9b58_0a26_4f59_44f3),
        ("detector/standard/train", 0x3604_9888_00f2_649e),
        ("detector/standard/grad", 0x57cd_5c18_c85b_57e8),
        ("gan/generator", 0x8a1d_d992_0498_c57d),
        ("gan/discriminator", 0x2602_b31c_74c5_5e31),
    ];
    assert_eq!(metas.len(), pins.len());
    for ((tag, meta), (pin_tag, pin)) in metas.iter().zip(pins) {
        assert_eq!(tag, pin_tag);
        let digest = fnv1a(&format!("{meta:?}"));
        assert_eq!(
            digest, pin,
            "{tag}: plan structure changed ({digest:#018x})"
        );
    }
}

/// Asserts that a shape-only trace and an eager tape record the same
/// metadata node for node: op, parents, attrs, scope and shape.
fn assert_same_metas(tag: &str, traced: &Graph, eager: &Graph) {
    assert_eq!(traced.len(), eager.len(), "{tag}: node count");
    for (i, (t, e)) in traced.metas().iter().zip(eager.metas()).enumerate() {
        assert_eq!(format!("{t:?}"), format!("{e:?}"), "{tag}: node {i}");
    }
}

/// The panic message of `f`.
fn panic_message(f: impl FnOnce()) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn shape_only_trace_matches_the_eager_tape() {
    // The compiled plans and `validate` read each network's forward
    // traced on a shape-only tape at batch 1; that trace must be the
    // tape the network records when it runs.
    for cfg in [YoloConfig::smoke(), YoloConfig::standard()] {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = ParamSet::new();
        let det = TinyYolo::new(&mut ps, &mut rng, cfg);
        let s = cfg.input;
        for training in [false, true] {
            let mut run = |mut g: Graph| {
                let x = g.input(Tensor::zeros(&[1, 3, s, s]));
                det.forward(&mut g, &mut ps, x, training);
                g
            };
            let traced = run(Graph::shape_only());
            let eager = run(Graph::new());
            let tag = format!("detector {s}px, training {training}");
            assert_same_metas(&tag, &traced, &eager);
        }
    }
    let (gen, disc, mut ps_g, ps_d) = gan_models(4);
    let cfg = GanConfig::default();
    for training in [false, true] {
        let mut run = |mut g: Graph| {
            let z = g.input(Tensor::zeros(&[1, cfg.z_dim]));
            gen.forward(&mut g, &mut ps_g, z, training);
            g
        };
        let tag = format!("generator, training {training}");
        assert_same_metas(&tag, &run(Graph::shape_only()), &run(Graph::new()));
    }
    let run = |mut g: Graph| {
        let x = g.input(Tensor::zeros(&[1, 1, cfg.canvas, cfg.canvas]));
        disc.forward(&mut g, &ps_d, x, false);
        g
    };
    assert_same_metas(
        "discriminator",
        &run(Graph::shape_only()),
        &run(Graph::new()),
    );

    // a shape-only node has no value, and ops without a shape-only form
    // refuse to run
    let mut g = Graph::shape_only();
    let x = g.input(Tensor::zeros(&[1, 4]));
    let msg = panic_message(|| {
        g.value(x);
    });
    assert!(msg.contains("shape-only tape and has no value"), "{msg}");
    let msg = panic_message(|| {
        g.add(x, x);
    });
    assert!(msg.contains("Graph::add has no shape-only form"), "{msg}");
}

#[test]
fn orphan_params_reports_unreferenced_parameter() {
    let (det, mut ps) = random_detector(13);
    let meta = det.infer_plan(&ps).meta();
    ps.register("stray.weight", Tensor::zeros(&[3, 3]));
    let orphans = rd_analysis::orphan_params(&[&meta], &ps);
    assert_eq!(orphans.len(), 1, "exactly the stray param is orphaned");
    assert_eq!(orphans[0].kind, PlanLintKind::OrphanParam);
    assert!(orphans[0].message.contains("stray.weight"));
}

#[test]
fn liveness_statistics_are_consistent() {
    let (det, ps) = random_detector(17);
    let meta = det.train_plan(&ps).meta();
    let ir = PlanIr::lift(&meta).expect("real plan lifts");
    let ranges = liveness::live_ranges(&ir);
    assert_eq!(ranges.len(), meta.slots.len());
    let peak = liveness::peak_live_elems(&ir);
    let max_slot = meta.slots.iter().map(|s| s.len).max().unwrap();
    let total: usize = meta.slots.iter().map(|s| s.len).sum();
    assert!(
        peak >= max_slot && peak <= total,
        "peak {peak} outside [{max_slot}, {total}]"
    );
}

// ---------------------------------------------------------------------
// negative paths: every corruption is caught by the intended lint
// ---------------------------------------------------------------------

/// First op index with a fused conv (chain length > 1, has params).
fn first_fused_conv(meta: &PlanMeta) -> usize {
    meta.ops
        .iter()
        .position(|o| o.conv.is_some() && o.fused.len() > 1 && !o.params.is_empty())
        .expect("plan has a fused conv")
}

#[test]
fn swap_buffer_indices_is_use_before_def() {
    let (det, ps) = random_detector(21);
    let mut meta = det.train_plan(&ps).meta();
    let op = first_fused_conv(&meta);
    plan_mutate::apply(&mut meta, Corruption::SwapBufferIndices { op });
    assert_fires(&meta, &ps, PlanLintKind::UseBeforeDef, &anchor(&meta, op));
}

#[test]
fn redirect_read_orphans_the_real_input_as_dead_buffer() {
    let (det, ps) = random_detector(22);
    let mut meta = det.infer_plan(&ps).meta();
    let ir = PlanIr::lift(&meta).expect("real plan lifts");
    // A slot with a producer and exactly one reader: redirecting that
    // reader elsewhere leaves the producer's output dead.
    let (slot, reader) = (0..meta.slots.len())
        .find_map(|s| {
            (!ir.defs[s].is_empty() && ir.uses[s].len() == 1 && !meta.outputs.contains(&s))
                .then(|| (s, ir.uses[s][0]))
        })
        .expect("plan has a single-reader slot");
    let producer = ir.defs[slot][0];
    let to = meta.input_slot;
    plan_mutate::apply(&mut meta, Corruption::RedirectRead { op: reader, to });
    assert_fires(
        &meta,
        &ps,
        PlanLintKind::DeadBuffer,
        &anchor(&meta, producer),
    );
}

#[test]
fn duplicate_write_is_an_alias_violation() {
    let (det, ps) = random_detector(23);
    let mut meta = det.train_plan(&ps).meta();
    let victim = first_fused_conv(&meta);
    let op = meta.ops[victim + 1..]
        .iter()
        .position(|o| o.conv.is_some())
        .map(|j| victim + 1 + j)
        .expect("a second conv exists");
    plan_mutate::apply(&mut meta, Corruption::DuplicateWrite { op, victim });
    // Two producers for one slot: the later writer is the anchor (in
    // the train fan-out this is a cross-group write-write race).
    assert_fires(&meta, &ps, PlanLintKind::Alias, &anchor(&meta, op));
}

#[test]
fn dropped_weight_param_breaks_coverage() {
    let (det, ps) = random_detector(24);
    let mut meta = det.train_plan(&ps).meta();
    let op = first_fused_conv(&meta);
    assert_eq!(meta.ops[op].params[0].role, ParamRole::ConvWeight);
    plan_mutate::apply(&mut meta, Corruption::DropParam { op });
    assert_fires(&meta, &ps, PlanLintKind::ParamCoverage, &anchor(&meta, op));
}

#[test]
fn reordered_fused_chain_breaks_fusion_legality() {
    let (det, ps) = random_detector(25);
    let mut meta = det.infer_plan(&ps).meta();
    let op = first_fused_conv(&meta);
    plan_mutate::apply(&mut meta, Corruption::ReorderFusedChain { op });
    assert_fires(&meta, &ps, PlanLintKind::Fusion, &anchor(&meta, op));
}

#[test]
fn flipped_gx_direct_breaks_grad_routing() {
    let (det, ps) = random_detector(26);
    let mut meta = det.train_plan(&ps).meta();
    let op = meta
        .ops
        .iter()
        .position(|o| o.gx_direct.is_some())
        .expect("train plan convs carry gx_direct");
    plan_mutate::apply(&mut meta, Corruption::FlipGxDirect { op });
    assert_fires(&meta, &ps, PlanLintKind::GxRouting, &anchor(&meta, op));
}

#[test]
fn corrupted_conv_geometry_is_a_fanout_race() {
    let (det, ps) = random_detector(27);
    let mut meta = det.train_plan(&ps).meta();
    let op = first_fused_conv(&meta);
    plan_mutate::apply(&mut meta, Corruption::CorruptConvGeom { op });
    assert_fires(&meta, &ps, PlanLintKind::Race, &anchor(&meta, op));
}

#[test]
fn shrunk_col_budget_is_infeasible() {
    let (det, ps) = random_detector(28);
    let mut meta = det.train_plan(&ps).meta();
    plan_mutate::apply(&mut meta, Corruption::ShrinkColBudget);
    let smallest = meta
        .ops
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.conv.as_ref().map(|c| (i, c.cols_len())))
        .min_by_key(|&(_, c)| c)
        .map(|(i, _)| i)
        .unwrap();
    assert_fires(
        &meta,
        &ps,
        PlanLintKind::ColBudget,
        &anchor(&meta, smallest),
    );
}

// ---------------------------------------------------------------------
// ulp-error certification
// ---------------------------------------------------------------------

#[test]
fn reference_kernel_certifies_zero_divergence() {
    let (det, ps) = random_detector(31);
    let meta = det.infer_plan(&ps).meta();
    let bounds = certify_logit_bounds(&meta, &ps, 0.0, 1.0, &KernelModel::reference())
        .expect("inference plan certifies");
    assert_eq!(bounds.len(), 2, "two detector heads");
    for b in &bounds {
        assert_eq!(
            b.max_abs_err, 0.0,
            "identical instruction sequences cannot diverge"
        );
        assert!(b.lo.is_finite() && b.hi.is_finite() && b.lo <= b.hi);
    }
}

#[test]
fn candidate_kernel_bound_is_finite_and_covers_observed_divergence() {
    let (det, ps) = random_detector(32);
    let meta = det.infer_plan(&ps).meta();
    let bounds = certify_logit_bounds(&meta, &ps, 0.0, 1.0, &KernelModel::f32x8_fma())
        .expect("inference plan certifies");
    let cert: f64 = bounds.iter().map(|b| b.max_abs_err).fold(0.0, f64::max);
    assert!(
        cert.is_finite() && cert > 0.0,
        "divergent model, bound {cert}"
    );

    // Observed divergence of the *scalar* compiled path vs the tape is
    // bitwise zero (the runtime equivalence tests enforce it); zero is
    // trivially within any sound candidate bound. This anchors the
    // certificate against a real execution rather than only the model.
    let mut rng = StdRng::seed_from_u64(99);
    let n = 2usize;
    let x = {
        let len = n * 3 * 64 * 64;
        let data: Vec<f32> = (0..len).map(|_| rng.gen_range(0.0..1.0)).collect();
        Tensor::from_vec(data, &[n, 3, 64, 64])
    };
    let (cc, cf) = det.infer(&ps, &x);
    let mut g = Graph::new();
    let xin = g.input(x);
    let out = det.forward_frozen(&mut g, &ps, xin);
    let (tc, tf) = (g.value(out.coarse), g.value(out.fine));
    let observed = tc
        .data()
        .iter()
        .zip(cc.data())
        .chain(tf.data().iter().zip(cf.data()))
        .map(|(a, b)| (*a as f64 - *b as f64).abs())
        .fold(0.0, f64::max);
    assert!(
        observed <= cert,
        "observed divergence {observed} exceeds certified bound {cert}"
    );
}

#[test]
fn train_mode_batch_norm_refuses_certification() {
    let (det, ps) = random_detector(33);
    let meta = det.train_plan(&ps).meta();
    let err = certify_logit_bounds(&meta, &ps, 0.0, 1.0, &KernelModel::f32x8_fma())
        .expect_err("batch statistics admit no static input-box bound");
    assert!(err.contains("batch_norm2d_train"), "got: {err}");
}

/// Soundness against a *real* reassociated+FMA execution: a hand-built
/// single-conv plan is certified, then the same convolution is computed
/// with the scalar k-ascending reduction and with an 8-lane
/// partial-sum-plus-`mul_add` reduction (the exact rounding shape of
/// the ROADMAP item-1 `f32x8`/FMA kernel). Their divergence must sit
/// inside the certificate on every random input in the declared box.
#[test]
fn certified_bound_covers_a_simulated_f32x8_fma_kernel() {
    let (cin, kh, kw, hin, win, cout) = (3usize, 3usize, 3usize, 8usize, 8usize, 4usize);
    let (ho, wo) = (hin - kh + 1, win - kw + 1);
    let k = cin * kh * kw;

    let mut rng = StdRng::seed_from_u64(5);
    let wdata: Vec<f32> = (0..cout * k).map(|_| rng.gen_range(-0.5..0.5)).collect();
    let mut ps = ParamSet::new();
    ps.register("w", Tensor::from_vec(wdata.clone(), &[cout, cin, kh, kw]));

    let meta = PlanMeta {
        kind: PlanKind::Infer,
        ops: vec![PlanOpMeta {
            name: "conv".into(),
            path: "test/conv".into(),
            reads: vec![0],
            writes: vec![1],
            params: vec![ParamRef {
                role: ParamRole::ConvWeight,
                index: 0,
            }],
            fused: vec!["conv2d".into()],
            conv: Some(ConvGeom {
                stride: 1,
                pad: 0,
                cin,
                hin,
                win,
                cout,
                kh,
                kw,
                ho,
                wo,
            }),
            linear: None,
            alpha: None,
            bn_train: None,
            bn_eps: None,
            gx_direct: None,
        }],
        slots: vec![
            SlotMeta {
                len: cin * hin * win,
                shape: vec![cin, hin, win],
            },
            SlotMeta {
                len: cout * ho * wo,
                shape: vec![cout, ho, wo],
            },
        ],
        input_slot: 0,
        outputs: vec![1],
        col_budget: None,
    };
    assert!(audit_plan(&meta, &ps).is_empty(), "synthetic plan is clean");

    let bound = certify_logit_bounds(&meta, &ps, 0.0, 1.0, &KernelModel::f32x8_fma())
        .expect("single conv certifies")[0];
    assert!(bound.max_abs_err.is_finite() && bound.max_abs_err > 0.0);
    assert!(bound.ulps_at_scale.is_finite());

    let mut worst = 0.0f64;
    for _ in 0..20 {
        let x: Vec<f32> = (0..cin * hin * win)
            .map(|_| rng.gen_range(0.0..1.0))
            .collect();
        for o in 0..cout {
            let row = &wdata[o * k..(o + 1) * k];
            for y in 0..ho {
                for xx in 0..wo {
                    // taps in (c, i, j) order, shared by both reductions
                    let mut taps = Vec::with_capacity(k);
                    for c in 0..cin {
                        for i in 0..kh {
                            for j in 0..kw {
                                taps.push(x[(c * hin + y + i) * win + xx + j]);
                            }
                        }
                    }
                    // scalar reference: k-ascending accumulation
                    let mut reference = 0.0f32;
                    for (w, t) in row.iter().zip(&taps) {
                        reference += w * t;
                    }
                    // candidate: 8 partial lanes + FMA, lanes summed last
                    let mut lanes = [0.0f32; 8];
                    for (t, (w, tap)) in row.iter().zip(&taps).enumerate() {
                        lanes[t % 8] = w.mul_add(*tap, lanes[t % 8]);
                    }
                    let candidate: f32 = lanes.iter().sum();
                    worst = worst.max((reference as f64 - candidate as f64).abs());
                }
            }
        }
    }
    assert!(
        worst <= bound.max_abs_err,
        "simulated f32x8+FMA kernel diverged by {worst}, certificate allows {}",
        bound.max_abs_err
    );
    assert!(worst > 0.0, "the simulation should actually diverge");
}
