//! Plan-analyzer integration tests: clean audits over every real plan
//! and mutation tests proving each lint fires at the exact op path.
//!
//! The mutation half is the analyzer's negative-path coverage demanded
//! by ISSUE 6: a lint that never fires is indistinguishable from a lint
//! that cannot fire, so every [`Corruption`] is applied to a freshly
//! lifted real plan and the *intended* [`PlanLintKind`] must be
//! reported at the *corrupted op's* path — not merely somewhere.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rd_analysis::{audit_plan, liveness, plan_mutate, Corruption, PlanIr, PlanLintKind};
use rd_detector::{TinyYolo, YoloConfig};
use rd_gan::{Discriminator, GanConfig, Generator};
use rd_tensor::{Graph, ParamRole, ParamSet, PlanKind, PlanMeta, PlanOpMeta, Tensor};

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
    let (det, ps) = random_detector(11);
    let plans = [
        ("detector/infer", det.infer_plan(&ps).meta()),
        ("detector/train", det.train_plan(&ps).meta()),
        ("detector/grad", det.grad_plan(&ps).meta()),
    ];
    for (tag, meta) in &plans {
        let issues = audit_plan(meta, &ps);
        assert!(
            issues.is_empty(),
            "{tag}: expected a clean audit, got: {:?}",
            issues.iter().map(|i| i.to_string()).collect::<Vec<_>>()
        );
    }
    // No orphans: every parameter is reachable from the compiled plans.
    let metas: Vec<&PlanMeta> = plans.iter().map(|(_, m)| m).collect();
    assert!(rd_analysis::orphan_params(&metas, &ps).is_empty());
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

/// Pins the structure of all 6 plans the detector caches (3 per scale),
/// as an FNV digest of each `PlanMeta`'s `Debug` form. A change that
/// moves any compiled plan must update its pin here and say why in
/// CHANGES.md.
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
    let pins: [(&str, u64); 6] = [
        ("detector/smoke/infer", 0xdbe4_3f4d_609b_f49c),
        ("detector/smoke/train", 0x20b1_14dd_50a7_47cd),
        ("detector/smoke/grad", 0x386a_1fba_a726_38cf),
        ("detector/standard/infer", 0xb70d_3f12_4363_dba8),
        ("detector/standard/train", 0xe4fb_8cfb_74bf_afb5),
        ("detector/standard/grad", 0xf6d7_b5f0_0606_050f),
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
