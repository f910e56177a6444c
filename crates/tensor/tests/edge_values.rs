//! Edge values through every engine: inputs seeded with NaN, ±0.0, ±∞
//! and subnormals run through the tape, `InferPlan` and `TrainPlan`
//! over a net that covers every op kind the plan lowering emits, and
//! every output bit must agree. Also pins max-pool's NaN rule: a NaN
//! never wins a window, and an all-NaN window gives −∞.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rd_tensor::init::kaiming_conv;
use rd_tensor::{Graph, InferPlan, ParamId, ParamSet, Tensor, TrainPlan, VarId};

const EPS: f32 = 1e-5;
const ALPHA: f32 = 0.1;
const SUBNORMAL: f32 = f32::MIN_POSITIVE / 4.0;

/// Per-sample input `[3, 8, 8]`.
const IN: [usize; 3] = [3, 8, 8];

struct Net {
    w1: ParamId,
    bn1: [ParamId; 4],
    w2: ParamId,
    bn2: [ParamId; 4],
    w3: ParamId,
    b3: ParamId,
}

fn net(ps: &mut ParamSet) -> Net {
    let mut rng = StdRng::seed_from_u64(5);
    // a zero of either sign among the conv weights: the GEMMs skip that
    // term, so the infinity or NaN behind it must stay out of the sum
    let mut conv = |ps: &mut ParamSet, name: &str, o: usize, c: usize, k: usize| {
        let mut t = kaiming_conv(&mut rng, o, c, k, k);
        t.data_mut()[0] = 0.0;
        t.data_mut()[1] = -0.0;
        ps.register(name, t)
    };
    let w1 = conv(ps, "w1", 4, 3, 3);
    let w2 = conv(ps, "w2", 4, 4, 3);
    let w3 = conv(ps, "w3", 2, 4, 1);
    let mut rng = StdRng::seed_from_u64(6);
    let mut bn = |ps: &mut ParamSet, tag: &str| {
        [
            ps.register(
                format!("{tag}.gamma"),
                Tensor::randn(&mut rng, &[4], 0.3).map(|v| v + 1.0),
            ),
            ps.register(format!("{tag}.beta"), Tensor::randn(&mut rng, &[4], 0.1)),
            ps.register(format!("{tag}.rmean"), Tensor::randn(&mut rng, &[4], 0.2)),
            ps.register(format!("{tag}.rvar"), Tensor::full(&[4], 0.9)),
        ]
    };
    let bn1 = bn(ps, "bn1");
    let bn2 = bn(ps, "bn2");
    let mut rng = StdRng::seed_from_u64(8);
    let b3 = ps.register("b3", Tensor::randn(&mut rng, &[2], 0.5));
    Net {
        w1,
        bn1,
        w2,
        bn2,
        w3,
        b3,
    }
}

/// A 3×3 conv on `x`, then an eval batch norm.
fn conv_bn(g: &mut Graph, ps: &ParamSet, x: VarId, w: ParamId, bn: [ParamId; 4]) -> VarId {
    let w = g.param(ps, w);
    let y = g.conv2d(x, w, None, 1, 1);
    let (ga, be) = (g.param(ps, bn[0]), g.param(ps, bn[1]));
    g.batch_norm2d_eval(y, ga, be, ps, bn[2], bn[3], EPS)
}

/// The net on `x` (`[n, 3, 8, 8]`); returns its roots.
///
/// - `y1 = conv_bn_leaky(x)`; `y2 = conv_bn(y1)`; `a = conv_bias(y1)`;
/// - `l = leaky(concat(a, upsample(max_pool(y2))))`, a standalone leaky;
/// - the input itself through a standalone leaky and a padded
///   stride-1 max-pool, so every special value reaches those kernels
///   unmixed.
fn body(g: &mut Graph, ps: &ParamSet, net: &Net, x: VarId) -> Vec<VarId> {
    let y1 = conv_bn(g, ps, x, net.w1, net.bn1);
    let y1 = g.leaky_relu(y1, ALPHA);
    let y2 = conv_bn(g, ps, y1, net.w2, net.bn2);
    let (w3, b3) = (g.param(ps, net.w3), g.param(ps, net.b3));
    let a = g.conv2d(y1, w3, Some(b3), 1, 0);
    let p = g.max_pool2d(y2, 2, 2, 0);
    let u = g.upsample_nearest2x(p);
    let cat = g.concat_channels(a, u);
    let l = g.leaky_relu(cat, ALPHA);
    let lx = g.leaky_relu(x, ALPHA);
    let px = g.max_pool2d(x, 2, 1, 1);
    vec![l, lx, px]
}

fn tape(ps: &ParamSet, net: &Net, x0: &Tensor) -> Vec<Tensor> {
    let mut g = Graph::new();
    let x = g.input(x0.clone());
    let roots = body(&mut g, ps, net, x);
    roots.iter().map(|&r| g.value(r).clone()).collect()
}

/// The net traced shape-only at batch 1.
fn trace(ps: &ParamSet, net: &Net) -> (Graph, Vec<VarId>) {
    let mut g = Graph::shape_only();
    let x = g.input(Tensor::zeros(&[1, IN[0], IN[1], IN[2]]));
    let roots = body(&mut g, ps, net, x);
    (g, roots)
}

/// Three samples: every special value at a high density, only the
/// finite ones (±0.0 and subnormals, so the deep layers stay finite),
/// and every special value sparsely.
fn edge_input() -> Tensor {
    let all = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        SUBNORMAL,
        -SUBNORMAL,
        f32::from_bits(1),
    ];
    let finite = [0.0, -0.0, SUBNORMAL, -SUBNORMAL, f32::from_bits(1)];
    let per: usize = IN.iter().product();
    let mut rng = StdRng::seed_from_u64(9);
    let mut data = Vec::with_capacity(3 * per);
    for (specials, density) in [(&all[..], 0.2), (&finite[..], 0.3), (&all[..], 0.03)] {
        for _ in 0..per {
            data.push(if rng.gen_bool(density) {
                specials[rng.gen_range(0..specials.len())]
            } else {
                rng.gen_range(-1.0f32..1.0)
            });
        }
    }
    Tensor::from_vec(data, &[3, IN[0], IN[1], IN[2]])
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

#[test]
fn edge_values_match_the_tape_bitwise_in_both_plans() {
    let mut ps = ParamSet::new();
    let net = net(&mut ps);
    let x0 = edge_input();

    let want = tape(&ps, &net, &x0);
    // the special values really reach the outputs
    let all: Vec<f32> = want.iter().flat_map(|t| t.data().to_vec()).collect();
    assert!(all.iter().any(|v| v.is_nan()), "no NaN reached an output");
    assert!(
        all.iter().any(|v| v.is_infinite()),
        "no infinity reached an output"
    );
    assert!(
        all.iter().any(|v| v.to_bits() == (-0.0f32).to_bits()),
        "no -0.0 reached an output"
    );
    assert!(
        all.iter().any(|v| v.is_subnormal()),
        "no subnormal reached an output"
    );
    let per = want[0].len() / 3;
    let finite_sample = &want[0].data()[per..2 * per];
    assert!(
        finite_sample.iter().all(|v| v.is_finite()) && finite_sample.iter().any(|&v| v != 0.0),
        "the finite sample's deep path is not finite and nonzero"
    );

    let (g, roots) = trace(&ps, &net);
    let plan = InferPlan::compile(&g, &roots).expect("edge net compiles for inference");
    let kinds: Vec<String> = plan.meta().ops.into_iter().map(|o| o.name).collect();
    for kind in [
        "conv_bn_leaky",
        "conv_bn",
        "conv_bias",
        "max_pool2d",
        "upsample_nearest2x",
        "concat_channels",
        "leaky_relu",
    ] {
        assert!(kinds.iter().any(|k| k == kind), "no {kind} op in {kinds:?}");
    }
    let got = plan.execute(&ps, &x0);
    assert_eq!(got.len(), want.len());
    for (ri, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_bits_eq(got, want, &format!("InferPlan root {ri}"));
    }

    let plan = TrainPlan::compile(&g, &roots).expect("edge net compiles for training");
    for need_param_grads in [false, true] {
        let step = plan.forward(&ps, &x0, need_param_grads);
        for (ri, want) in want.iter().enumerate() {
            let what = format!("TrainPlan root {ri} (param grads {need_param_grads})");
            assert_bits_eq(&step.output(ri), want, &what);
        }
    }
}

#[test]
fn max_pool_ignores_nan_and_an_all_nan_window_gives_neg_infinity() {
    // one 2x4 plane, two 2x2 windows: {NaN, 1, 2, NaN} and all NaN
    let nan = f32::NAN;
    let x0 = Tensor::from_vec(vec![nan, 1.0, nan, nan, 2.0, nan, nan, nan], &[1, 1, 2, 4]);
    let want = [2.0f32, f32::NEG_INFINITY];

    let mut g = Graph::new();
    let x = g.input(x0.clone());
    let y = g.max_pool2d(x, 2, 2, 0);
    assert_eq!(g.value(y).data(), want, "tape");

    let ps = ParamSet::new();
    let mut g = Graph::shape_only();
    let x = g.input(Tensor::zeros(&[1, 1, 2, 4]));
    let y = g.max_pool2d(x, 2, 2, 0);
    let infer = InferPlan::compile(&g, &[y]).expect("pool compiles for inference");
    assert_eq!(infer.execute(&ps, &x0)[0].data(), want, "InferPlan");
    let train = TrainPlan::compile(&g, &[y]).expect("pool compiles for training");
    assert_eq!(
        train.forward(&ps, &x0, false).output(0).data(),
        want,
        "TrainPlan"
    );
}
