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
