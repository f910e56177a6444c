//! Gates for the render fast path: the pose-keyed, arena-backed
//! [`FrameRenderer`] must produce frames **bitwise identical** to the
//! fresh per-frame path ([`render_attacked_frame`]) for arbitrary poses,
//! decal counts, channel configurations and mono/RGB decals — on cache
//! misses and on cache hits alike — and both must match a frozen copy of
//! the seed-era renderer ([`seed_render_frame`]). One render must also
//! record each stage's profile path. CI runs this file on both SIMD
//! backends (`RD_NO_SIMD=1` re-run).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use rd_scene::{CameraPose, CameraRig, PhysicalChannel};
use rd_tensor::{LinearMap, Runtime, RuntimeConfig, Tensor};
use rd_vision::shapes::{mask, Shape};
use rd_vision::warp::homography;
use rd_vision::{Image, Plane, Rgb};

use road_decals::eval::{render_attacked_frame, EvalConfig};
use road_decals::render::FrameRenderer;
use road_decals::scenario::AttackScenario;
use road_decals::Decal;

/// The pre-CSR warp apply of the seed renderer: zero-fill, then
/// entry-order scatter. [`LinearMap::apply_plane`]'s CSR row
/// accumulation is bitwise-identical to it (tested in the tensor crate).
fn scatter_apply(map: &LinearMap, src: &[f32]) -> Vec<f32> {
    let (h, w) = map.out_hw();
    let mut out = vec![0.0f32; h * w];
    for e in map.entries() {
        out[e.dst as usize] += e.weight * src[e.src as usize];
    }
    out
}

/// A frozen copy of the seed-era frame renderer, the fixture both fast
/// paths are held to. Per frame it rebuilds everything the fast path
/// caches: the full-grid camera homography scan, the ones-coverage
/// plane, the background, the full-grid decal homographies and alpha
/// masks, and a `Plane` clone of each mono decal canvas. The capture
/// channel is shared with the fast path.
fn seed_render_frame(
    scenario: &AttackScenario,
    printed: &[Decal],
    cfg: &EvalConfig,
    pose: &CameraPose,
    motion: f32,
    rng: &mut StdRng,
) -> Image {
    let rig = &scenario.rig;
    let (h, w) = rig.image_hw;
    let map = homography(rig.canvas_hw, rig.image_hw, &rig.world_to_image(pose))
        .expect("camera homography must be invertible");
    let ones = vec![1.0f32; rig.canvas_hw.0 * rig.canvas_hw.1];
    let cov = scatter_apply(&map, &ones);
    let mut out = rig.background();
    let world = scenario.world.canvas();
    let hw_world = rig.canvas_hw.0 * rig.canvas_hw.1;
    for ch in 0..3 {
        let plane = scatter_apply(&map, &world.data()[ch * hw_world..(ch + 1) * hw_world]);
        for y in 0..h {
            if (y as f32) < rig.horizon_v - 1.0 {
                continue; // keep the sky
            }
            for x in 0..w {
                let i = y * w + x;
                let a = cov[i].clamp(0.0, 1.0);
                if a > 0.0 {
                    let cur = out.get(y, x);
                    let v = (plane[i] / a.max(1e-3)).clamp(0.0, 1.0);
                    let mixed = match ch {
                        0 => Rgb(cur.0 * (1.0 - a) + v * a, cur.1, cur.2),
                        1 => Rgb(cur.0, cur.1 * (1.0 - a) + v * a, cur.2),
                        _ => Rgb(cur.0, cur.1, cur.2 * (1.0 - a) + v * a),
                    };
                    out.set(y, x, mixed);
                }
            }
        }
    }
    for (i, d) in printed.iter().enumerate() {
        let dmap = homography(
            (d.canvas(), d.canvas()),
            rig.image_hw,
            &scenario.decal_to_image(i, pose, None),
        )
        .expect("decal homography must be invertible");
        let alpha: Vec<f32> = scatter_apply(&dmap, d.mask().data())
            .into_iter()
            .map(|v| v.clamp(0.0, 1.0))
            .collect();
        match d.num_channels() {
            1 => {
                let patch = Plane::from_vec(d.channel_data().to_vec(), d.canvas(), d.canvas());
                let warped = scatter_apply(&dmap, patch.data());
                for y in 0..h {
                    for x in 0..w {
                        let a = alpha[y * w + x];
                        if a > 0.0 {
                            let v = warped[y * w + x].clamp(0.0, 1.0);
                            out.blend(y, x, Rgb::gray(v), a);
                        }
                    }
                }
            }
            _ => {
                let cs = d.canvas() * d.canvas();
                let planes: Vec<Vec<f32>> = (0..3)
                    .map(|c| scatter_apply(&dmap, &d.channel_data()[c * cs..(c + 1) * cs]))
                    .collect();
                for y in 0..h {
                    for x in 0..w {
                        let a = alpha[y * w + x];
                        if a > 0.0 {
                            let i2 = y * w + x;
                            let cl = |v: f32| v.clamp(0.0, 1.0);
                            out.blend(
                                y,
                                x,
                                Rgb(cl(planes[0][i2]), cl(planes[1][i2]), cl(planes[2][i2])),
                                a,
                            );
                        }
                    }
                }
            }
        }
    }
    cfg.channel.capture.apply(&mut out, motion, rng);
    out
}

/// Index of the first pixel whose bits differ between two frames.
fn first_drift(a: &Image, b: &Image) -> Option<usize> {
    a.data()
        .iter()
        .zip(b.data())
        .position(|(x, y)| x.to_bits() != y.to_bits())
}

fn channel(idx: u8) -> PhysicalChannel {
    match idx % 3 {
        0 => PhysicalChannel::digital(),
        1 => PhysicalChannel::simulated(),
        _ => PhysicalChannel::real_world(),
    }
}

fn decal(rgb: bool, level: f32) -> Decal {
    let m = mask(Shape::Star, 16);
    if rgb {
        let data: Vec<f32> = (0..3 * 16 * 16)
            .map(|i| (level + i as f32 * 0.003) % 1.0)
            .collect();
        Decal::rgb(&Tensor::from_vec(data, &[3, 16, 16]), m, Shape::Star)
    } else {
        Decal::mono(&Plane::new(16, 16, level), m, Shape::Star)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cached/pooled rendering is bit-identical to the fresh path: same
    /// frame bits and the same number of RNG draws, twice per pose so
    /// the second render exercises every cache-hit path. Both equal the
    /// frozen seed renderer.
    #[test]
    fn fast_path_matches_fresh_path_bitwise(
        z_near in 1.0f32..8.0,
        lateral_m in -1.0f32..1.0,
        yaw in -0.3f32..0.3,
        roll in -0.2f32..0.2,
        n_decals in 0usize..4,
        rgb in any::<bool>(),
        chan_idx in 0u8..3,
        level in 0.0f32..1.0,
        motion in 0.0f32..0.2,
        seed in any::<u64>(),
    ) {
        let rig = CameraRig::smoke();
        let scenario = AttackScenario::parking_lot(rig, 4, 60, 16, 11);
        let cfg = EvalConfig {
            channel: channel(chan_idx),
            ..EvalConfig::smoke(1)
        };
        let printed: Vec<Decal> = (0..n_decals)
            .map(|i| decal(rgb, (level + i as f32 * 0.1) % 1.0))
            .collect();
        let pose = CameraPose { z_near, lateral_m, yaw, roll };
        let frozen = seed_render_frame(
            &scenario,
            &printed,
            &cfg,
            &pose,
            motion,
            &mut StdRng::seed_from_u64(seed),
        );
        let renderer = FrameRenderer::new(&scenario);
        for round in 0..2 {
            let mut fresh_rng = StdRng::seed_from_u64(seed);
            let fresh =
                render_attacked_frame(&scenario, &printed, &pose, &cfg, motion, &mut fresh_rng);
            prop_assert_eq!(
                first_drift(&frozen, &fresh),
                None,
                "the fresh path drifted from the seed renderer"
            );
            let mut fast_rng = StdRng::seed_from_u64(seed);
            let draws = cfg.channel.capture.sample_draws(rig.image_hw, &mut fast_rng);
            let fast = renderer.render(&scenario, &printed, &pose, &cfg, motion, &draws);
            draws.recycle();
            prop_assert_eq!(fresh.data().len(), fast.data().len());
            for (i, (a, b)) in fresh.data().iter().zip(fast.data()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "pixel {} drifted on round {} ({} vs {})",
                    i,
                    round,
                    a,
                    b
                );
            }
            // draw-count parity: both paths must leave the RNG at the
            // same stream position, or run-level sequencing would drift
            prop_assert_eq!(fresh_rng.next_u64(), fast_rng.next_u64());
            rd_tensor::arena::recycle(fast.into_vec());
        }
        let stats = renderer.cache_stats();
        prop_assert!(stats.cam_hits >= 1, "second render must hit the pose cache");
    }
}

/// One render call charges each of its three stages to its own profile
/// path.
#[test]
fn render_records_its_stage_profile_paths() {
    let scenario = AttackScenario::parking_lot(CameraRig::smoke(), 4, 60, 16, 11);
    let cfg = EvalConfig {
        channel: PhysicalChannel::simulated(),
        ..EvalConfig::smoke(17)
    };
    let printed = [decal(false, 0.03)];
    let pose = CameraPose {
        z_near: 3.0,
        lateral_m: 0.0,
        yaw: 0.0,
        roll: 0.0,
    };
    let rt = Runtime::new(RuntimeConfig {
        profiling: true,
        ..RuntimeConfig::default()
    });
    let paths = rt.enter(|| {
        let draws = cfg
            .channel
            .capture
            .sample_draws(scenario.rig.image_hw, &mut StdRng::seed_from_u64(43));
        let frame =
            FrameRenderer::new(&scenario).render(&scenario, &printed, &pose, &cfg, 0.0, &draws);
        draws.recycle();
        rd_tensor::arena::recycle(frame.into_vec());
        rd_tensor::profile::snapshot()
    });
    for key in ["render/world", "render/decals", "render/capture"] {
        assert!(
            paths.iter().any(|(k, _)| k == key),
            "no {key} sample among {:?}",
            paths.iter().map(|(k, _)| k).collect::<Vec<_>>()
        );
    }
}
