//! Equivalence of the compiled grad-free inference path with the tape.
//!
//! The contract enforced here is the PR's load-bearing invariant: for any
//! weights, any input batch and any worker-pool thread count,
//! [`TinyYolo::infer`] is **bitwise-identical** to the reverse-mode tape
//! `forward_frozen`, and a batched call equals the concatenation of the
//! per-sample calls.

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rd_detector::{TinyYolo, YoloConfig};
use rd_tensor::{Graph, ParamSet, Runtime, RuntimeConfig, Tensor};

/// A smoke-scale detector with every parameter (weights, biases,
/// gammas/betas and the batch-norm running statistics) randomized, so
/// the fused conv+bn+leaky kernel is exercised on non-default stats.
fn random_model(seed: u64) -> (TinyYolo, ParamSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ps = ParamSet::new();
    let model = TinyYolo::new(&mut ps, &mut rng, YoloConfig::smoke());
    for (_, p) in ps.iter_mut() {
        let rvar = p.name().ends_with(".rvar");
        for v in p.value_mut().data_mut() {
            let r: f32 = rng.gen_range(-0.5..0.5);
            // running variances must stay positive
            *v = if rvar { 0.1 + (r + 0.5) } else { *v + r };
        }
    }
    (model, ps)
}

fn tape_forward(model: &TinyYolo, ps: &ParamSet, x0: &Tensor) -> (Tensor, Tensor) {
    let mut g = Graph::new();
    let x = g.input(x0.clone());
    let out = model.forward_frozen(&mut g, ps, x);
    (g.value(out.coarse).clone(), g.value(out.fine).clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn compiled_matches_tape_bitwise_at_1_and_4_threads(
        seed in 0u64..1_000_000,
        n in 1usize..5,
    ) {
        let (model, ps) = random_model(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf00d);
        let x = Tensor::randn(&mut rng, &[n, 3, 64, 64], 1.0);
        let (tc, tf) = tape_forward(&model, &ps, &x);
        for threads in [1usize, 4] {
            let (cc, cf) = Runtime::new(RuntimeConfig {
                threads,
                ..RuntimeConfig::default()
            })
            .enter(|| model.infer(&ps, &x));
            prop_assert_eq!(tc.shape(), cc.shape());
            prop_assert_eq!(tf.shape(), cf.shape());
            prop_assert_eq!(
                tc.data(), cc.data(),
                "coarse head diverged at {} thread(s)", threads
            );
            prop_assert_eq!(
                tf.data(), cf.data(),
                "fine head diverged at {} thread(s)", threads
            );
        }
    }

    #[test]
    fn batched_equals_per_sample(seed in 0u64..1_000_000, n in 2usize..5) {
        let (model, ps) = random_model(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        let x = Tensor::randn(&mut rng, &[n, 3, 64, 64], 1.0);
        let (bc, bf) = model.infer(&ps, &x);
        let sample_len = 3 * 64 * 64;
        for i in 0..n {
            let xi = Tensor::from_vec(
                x.data()[i * sample_len..(i + 1) * sample_len].to_vec(),
                &[1, 3, 64, 64],
            );
            let (sc, sf) = model.infer(&ps, &xi);
            let clen = sc.data().len();
            let flen = sf.data().len();
            prop_assert_eq!(
                &bc.data()[i * clen..(i + 1) * clen], sc.data(),
                "coarse sample {} diverged from batched run", i
            );
            prop_assert_eq!(
                &bf.data()[i * flen..(i + 1) * flen], sf.data(),
                "fine sample {} diverged from batched run", i
            );
        }
    }
}

/// FNV-1a over the exact bits of every value folded in.
struct Fnv(u64);

impl Fnv {
    fn floats(&mut self, xs: &[f32]) {
        for &x in xs {
            for b in x.to_bits().to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// One digest over the reference tier's conv arithmetic on a smoke
/// detector: `infer`'s heads, a `train_plan` step's heads and parameter
/// and input gradients, a `grad_plan` input gradient, and an input
/// gradient through the tape. Parameters, input and head seeds are all
/// `gen_range` uniforms, so no libm routine feeds the bits.
fn reference_tier_digest() -> u64 {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut ps = ParamSet::new();
    let model = TinyYolo::new(&mut ps, &mut rng, YoloConfig::smoke());
    for (_, p) in ps.iter_mut() {
        let rvar = p.name().ends_with(".rvar");
        for v in p.value_mut().data_mut() {
            *v = if rvar {
                rng.gen_range(0.1f32..1.1)
            } else {
                rng.gen_range(-0.25f32..0.25)
            };
        }
    }
    let mut uniform = |shape: &[usize], lo: f32, hi: f32| {
        let len = shape.iter().product();
        Tensor::from_vec((0..len).map(|_| rng.gen_range(lo..hi)).collect(), shape)
    };
    let x = uniform(&[3, 3, 64, 64], 0.0, 1.0);
    let seeds = [
        uniform(&[3, 30, 2, 2], -1.0, 1.0),
        uniform(&[3, 30, 4, 4], -1.0, 1.0),
    ];

    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let (coarse, fine) = model.infer(&ps, &x);
    h.floats(coarse.data());
    h.floats(fine.data());

    let mut step = model.train_plan(&ps).forward(&ps, &x, true);
    h.floats(step.output(0).data());
    h.floats(step.output(1).data());
    step.backward(&ps, &[&seeds[0], &seeds[1]], true);
    h.floats(step.input_grad().data());
    let mut grads = ps.clone();
    grads.zero_grads();
    step.write_param_grads(&mut grads);
    drop(step);
    for (_, p) in grads.iter() {
        h.floats(p.grad().data());
    }

    let mut step = model.grad_plan(&ps).forward(&ps, &x, false);
    step.backward(&ps, &[&seeds[0], &seeds[1]], true);
    h.floats(step.input_grad().data());
    drop(step);

    let mut g = Graph::new();
    let xv = g.input(x);
    let out = model.forward_frozen(&mut g, &ps, xv);
    let sc = g.input(seeds[0].clone());
    let sf = g.input(seeds[1].clone());
    let lc = g.mul(out.coarse, sc);
    let lf = g.mul(out.fine, sf);
    let lc = g.sum_all(lc);
    let lf = g.sum_all(lf);
    let loss = g.add(lc, lf);
    h.floats(g.backward(loss).get(xv).data());
    h.0
}

/// Pins the bits the reference tier's conv GEMMs produce. The
/// compiled-vs-tape tests cannot see a kernel change that moves a
/// rounding, because both routes run the same kernels; this digest
/// can. A change that moves it must update it and say why.
#[test]
fn reference_tier_bits_are_pinned() {
    for threads in [1usize, 2] {
        let digest = Runtime::new(RuntimeConfig {
            threads,
            ..RuntimeConfig::default()
        })
        .enter(reference_tier_digest);
        assert_eq!(
            digest, 0x596a_7b05_db24_3037,
            "reference tier bits moved at {threads} thread(s): {digest:#018x}"
        );
    }
}
