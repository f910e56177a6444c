//! Integration fixtures for the three rd-analysis passes: shape
//! validation on a declared graph, structural lints over an executed
//! tape, and NaN provenance with a mid-tape injection.

use rd_analysis::{audit_non_finite, lint_with_params, validate, LintKind};
use rd_tensor::{Graph, ParamSet, Tensor};

#[test]
fn validation_names_the_offending_layer_in_a_declared_net() {
    // A three-block conv stack declared shape-only; the middle block's
    // weight claims 8 input channels while block one produces 16.
    let mut g = Graph::shape_only();
    let x = g.declare("input", &[], &[], &[1, 3, 32, 32]);
    let y = g.scoped("stem/conv1", |g| {
        let w = g.declare("param", &[], &[], &[16, 3, 3, 3]);
        g.declare(
            "conv2d",
            &[x, w],
            &[("stride", 1), ("pad", 1)],
            &[1, 16, 32, 32],
        )
    });
    let y = g.scoped("stem/conv2", |g| {
        let w = g.declare("param", &[], &[], &[32, 8, 3, 3]);
        g.declare(
            "conv2d",
            &[y, w],
            &[("stride", 1), ("pad", 1)],
            &[1, 32, 32, 32],
        )
    });
    g.scoped("stem/conv3", |g| {
        let w = g.declare("param", &[], &[], &[32, 32, 3, 3]);
        g.declare(
            "conv2d",
            &[y, w],
            &[("stride", 1), ("pad", 1)],
            &[1, 32, 32, 32],
        )
    });

    let issues = validate(&g).unwrap_err();
    assert_eq!(issues.len(), 1, "claimed-shape recovery must stop cascades");
    let msg = issues[0].to_string();
    assert!(msg.contains("stem/conv2"), "wrong layer named: {msg}");
    assert!(msg.contains("C=8") && msg.contains("C=16"), "{msg}");
}

#[test]
fn zero_sized_dimension_is_flagged_as_underflow() {
    // The silent-shape-underflow class: a conv whose kernel exceeds the
    // padded input used to be declared with a saturated (bogus) output
    // dim. The validator must flag both the impossible conv and any
    // node that declares a zero-sized dimension outright.
    let mut g = Graph::shape_only();
    let x = g.declare("input", &[], &[], &[1, 3, 2, 2]);
    g.scoped("stem/conv1", |g| {
        let w = g.declare("param", &[], &[], &[4, 3, 5, 5]);
        g.declare(
            "conv2d",
            &[x, w],
            &[("stride", 1), ("pad", 1)],
            &[1, 4, 1, 1],
        )
    });
    let issues = validate(&g).unwrap_err();
    let msg = issues[0].to_string();
    assert!(
        msg.contains("larger than padded input"),
        "conv underflow not named: {msg}"
    );

    let mut g = Graph::shape_only();
    let x = g.declare("input", &[], &[], &[1, 3, 0, 8]);
    g.declare("relu", &[x], &[], &[1, 3, 0, 8]);
    let issues = validate(&g).unwrap_err();
    assert!(
        issues
            .iter()
            .any(|i| i.to_string().contains("zero-sized dimension")),
        "zero-dim rule did not fire: {issues:?}"
    );
}

#[test]
fn unused_param_lint_names_the_parameter() {
    let mut ps = ParamSet::new();
    let used = ps.register("used.w", Tensor::from_vec(vec![1.0, 2.0], &[2]));
    let forgotten = ps.register("forgotten.w", Tensor::from_vec(vec![3.0], &[1]));

    let mut g = Graph::new();
    let a = g.param(&ps, used);
    let _b = g.param(&ps, forgotten); // enters the tape, never reaches the loss
    let doubled = g.scale(a, 2.0);
    let _loss = g.sum_all(doubled);

    let issues = lint_with_params(&g, &ps);
    let unused: Vec<_> = issues
        .iter()
        .filter(|i| i.kind == LintKind::UnusedParam)
        .collect();
    assert_eq!(unused.len(), 1, "exactly one unused param: {issues:?}");
    assert!(
        unused[0].message.contains("`forgotten.w`"),
        "must resolve the parameter name: {}",
        unused[0]
    );
}

#[test]
fn structurally_zero_grad_param_is_flagged() {
    let mut ps = ParamSet::new();
    let p = ps.register("w", Tensor::from_vec(vec![1.0, -1.0], &[2]));

    let mut g = Graph::new();
    let v = g.param(&ps, p);
    // A named custom node *without* a backward closure: the parameter is
    // forward-reachable but no gradient can flow through.
    let blocked = {
        let t = g.value(v).clone();
        g.custom_named("detach", &[v], &[], t, None)
    };
    let _loss = g.sum_all(blocked);

    let issues = lint_with_params(&g, &ps);
    assert!(
        issues
            .iter()
            .any(|i| i.kind == LintKind::AlwaysZeroGrad && i.message.contains("`w`")),
        "zero-grad param not flagged: {issues:?}"
    );
}

#[test]
fn nan_provenance_points_at_the_injection_site() {
    let mut g = Graph::new();
    let x = g.input(Tensor::from_vec(vec![0.5, 1.5, -0.25, 2.0], &[4]));
    let healthy = g.scale(x, 2.0);
    // inject a NaN mid-tape through a named fused op
    let poisoned = {
        let mut t = g.value(healthy).clone();
        t.data_mut()[2] = f32::NAN;
        g.custom_named("flaky_kernel", &[healthy], &[], t, None)
    };
    let downstream = g.add_scalar(poisoned, 1.0); // inherits the NaN
    let _loss = g.sum_all(downstream);

    let report = audit_non_finite(&g).expect("tape contains a NaN");
    assert!(
        report.culprit.path.contains("flaky_kernel"),
        "culprit is the injection site, got {}",
        report.culprit
    );
    assert_eq!(report.culprit.non_finite, 1);
    assert_eq!(report.culprit.len, 4);
    // the recorded parent was still healthy
    assert_eq!(report.parents.len(), 1);
    assert_eq!(report.parents[0].non_finite, 0);
    assert_eq!(report.parents[0].min, Some(-0.5));
    assert_eq!(report.parents[0].max, Some(4.0));
    // and the nearest fully-finite ancestor is that same parent
    let anc = report
        .last_finite_ancestor
        .as_ref()
        .expect("finite ancestor");
    assert_eq!(anc.node, report.parents[0].node);
}

#[test]
fn clean_tape_produces_no_nan_report() {
    let mut g = Graph::new();
    let x = g.input(Tensor::from_vec(vec![1.0, 2.0], &[2]));
    let y = g.relu(x);
    let _ = g.sum_all(y);
    assert!(audit_non_finite(&g).is_none());
}
