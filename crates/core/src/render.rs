//! Pose-keyed render fast path: a reusable [`FrameRenderer`] that
//! caches warp geometry per camera pose and composits into arena-backed
//! frame buffers.
//!
//! The streaming evaluator spends most of its render time rebuilding
//! geometry that depends only on the camera pose: the full-image warp
//! map (~4·H·W entries), its coverage plane, the background, and one
//! homography map + warped alpha mask per decal. Poses repeat heavily —
//! a `Rotation(Fix)` challenge uses one pose for the whole drive — so
//! the renderer keys small LRU caches on the **exact pose bits**
//! (`f32::to_bits` of the four pose fields). A cache hit therefore
//! replays geometry for a bit-identical pose, which makes the fast path
//! trivially bitwise-equal to rebuilding; a miss rebuilds through the
//! same constructors the fresh path uses.
//!
//! # Bitwise contract
//!
//! `FrameRenderer::render` + [`CaptureModel::sample_draws`] produces
//! frames bit-identical to [`crate::eval::render_attacked_frame`] with
//! the same RNG stream:
//!
//! * cached maps/coverage/alpha are built by the identical code, and a
//!   key hit implies an identical pose;
//! * the composition arithmetic is shared (`render_frame_with`,
//!   `paste_*_alpha`) and row-bounded loops only skip pixels whose
//!   alpha/coverage is exactly zero;
//! * capture randomness is pre-sampled in the exact draw order of the
//!   interleaved path ([`CaptureModel::sample_draws`]).
//!
//! The tests in `render_fastpath.rs` enforce this end to end on both
//! SIMD backends: a property test of cached against fresh rendering,
//! and a frozen copy of the seed-era renderer that both must match.
//!
//! # Sharing
//!
//! `render` takes `&self` (caches behind mutexes, counters atomic), so
//! one renderer is shared by the parallel chunk workers of a streaming
//! job. Each evaluation builds its own renderer — fleet jobs never
//! share state across runtimes. One renderer serves one scenario and
//! decal set: the per-site alpha cache assumes decal masks are stable
//! across runs, which holds because printing perturbs intensities, not
//! masks.
//!
//! [`CaptureModel::sample_draws`]: rd_scene::CaptureModel::sample_draws

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use rd_scene::{CameraPose, CameraRig, CaptureDraws};
use rd_tensor::{arena, profile, LinearMap};
use rd_vision::compose::{mask_on_image, paste_plane_alpha, paste_rgb_alpha};
use rd_vision::{Image, Plane};

use crate::decal::Decal;
use crate::eval::EvalConfig;
use crate::scenario::AttackScenario;

/// Camera-geometry cache capacity (poses).
const CAM_CACHE_POSES: usize = 64;
/// Decal-geometry cache capacity ((site, pose) pairs).
const DECAL_CACHE_ENTRIES: usize = 256;

/// Exact-bits cache key for a camera pose: equal keys ⇒ bit-identical
/// poses ⇒ bit-identical derived geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PoseKey([u32; 4]);

impl PoseKey {
    fn of(pose: &CameraPose) -> Self {
        PoseKey([
            pose.z_near.to_bits(),
            pose.lateral_m.to_bits(),
            pose.yaw.to_bits(),
            pose.roll.to_bits(),
        ])
    }
}

/// Pose-derived camera geometry: warp map + coverage plane.
struct CamEntry {
    map: LinearMap,
    cov: Vec<f32>,
}

/// (site, pose)-derived decal geometry: bounded homography map, warped
/// alpha plane, and the destination row span the map can touch.
struct DecalEntry {
    map: LinearMap,
    alpha: Plane,
    rows: (usize, usize),
}

/// A tiny move-to-front LRU over a linear-scan `Vec` — entry counts are
/// double digits, so a scan is cheaper than hashing fancier structures.
struct Lru<K, V> {
    cap: usize,
    entries: Vec<(K, Arc<V>)>,
}

impl<K: PartialEq + Copy, V> Lru<K, V> {
    fn new(cap: usize) -> Self {
        Lru {
            cap,
            entries: Vec::new(),
        }
    }

    fn get(&mut self, key: &K) -> Option<Arc<V>> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        let e = self.entries.remove(i);
        let v = Arc::clone(&e.1);
        self.entries.insert(0, e);
        Some(v)
    }

    fn insert(&mut self, key: K, v: Arc<V>) {
        // A racing worker may have built the same pose concurrently
        // (entries are built outside the lock); either copy is
        // bit-identical, keep the first.
        if self.entries.iter().any(|(k, _)| *k == key) {
            return;
        }
        if self.entries.len() >= self.cap {
            self.entries.pop();
        }
        self.entries.insert(0, (key, v));
    }
}

/// Recover the guard from a poisoned lock: a cancelled worker can
/// unwind while holding it, but the cached geometry is immutable behind
/// `Arc`s, so the data is never half-written.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Cache hit/miss counters of a [`FrameRenderer`] (diagnostics for the
/// bench report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderCacheStats {
    /// Camera-geometry cache hits.
    pub cam_hits: usize,
    /// Camera-geometry cache misses (fresh builds).
    pub cam_misses: usize,
    /// Decal-geometry cache hits.
    pub decal_hits: usize,
    /// Decal-geometry cache misses (fresh builds).
    pub decal_misses: usize,
}

/// Reusable render state for one evaluation: precomputed background
/// plus pose-keyed LRU caches of camera and decal geometry. See the
/// module docs for the bitwise contract and sharing rules.
pub struct FrameRenderer {
    rig: CameraRig,
    background: Image,
    cam_cache: Mutex<Lru<PoseKey, CamEntry>>,
    decal_cache: Mutex<Lru<(u32, PoseKey), DecalEntry>>,
    cam_hits: AtomicUsize,
    cam_misses: AtomicUsize,
    decal_hits: AtomicUsize,
    decal_misses: AtomicUsize,
}

impl FrameRenderer {
    /// Builds a renderer for one scenario (precomputes the background).
    pub fn new(scenario: &AttackScenario) -> Self {
        FrameRenderer {
            rig: scenario.rig,
            background: scenario.rig.background(),
            cam_cache: Mutex::new(Lru::new(CAM_CACHE_POSES)),
            decal_cache: Mutex::new(Lru::new(DECAL_CACHE_ENTRIES)),
            cam_hits: AtomicUsize::new(0),
            cam_misses: AtomicUsize::new(0),
            decal_hits: AtomicUsize::new(0),
            decal_misses: AtomicUsize::new(0),
        }
    }

    /// Renders one attacked frame through the cached fast path —
    /// bitwise-identical to [`crate::eval::render_attacked_frame`] given
    /// `draws` pre-sampled from the same RNG position (see the module
    /// docs). The frame buffer comes from the current runtime's arena;
    /// recycle it with `Image::into_vec` + `arena::recycle` when done.
    ///
    /// When profiling is enabled the stages are attributed to the
    /// `render/world`, `render/decals` and `render/capture` paths.
    ///
    /// # Panics
    ///
    /// Panics if `scenario` disagrees with the rig this renderer was
    /// built for, or on decal/mask geometry mismatches.
    pub fn render(
        &self,
        scenario: &AttackScenario,
        printed: &[Decal],
        pose: &CameraPose,
        cfg: &EvalConfig,
        motion: f32,
        draws: &CaptureDraws,
    ) -> Image {
        assert_eq!(scenario.rig, self.rig, "renderer built for another rig");
        let mut t = profile::enabled().then(Instant::now);
        let (h, w) = self.rig.image_hw;
        let cam = self.cam_entry(pose);
        let mut data = arena::take(3 * h * w);
        data.copy_from_slice(self.background.data());
        let mut frame = Image::from_vec(data, h, w);
        self.rig
            .render_frame_with(scenario.world.canvas(), &cam.map, &cam.cov, &mut frame);
        t = mark(t, "render/world");
        for (i, d) in printed.iter().enumerate() {
            let de = self.decal_entry(scenario, i, pose, d.mask());
            match d.num_channels() {
                1 => paste_plane_alpha(&mut frame, d.channel_data(), &de.map, &de.alpha, de.rows),
                _ => paste_rgb_alpha(&mut frame, d.channel_data(), &de.map, &de.alpha, de.rows),
            }
        }
        t = mark(t, "render/decals");
        cfg.channel.capture.apply_draws(&mut frame, motion, draws);
        mark(t, "render/capture");
        frame
    }

    /// Cache hit/miss counters so far.
    pub fn cache_stats(&self) -> RenderCacheStats {
        RenderCacheStats {
            cam_hits: self.cam_hits.load(Ordering::Relaxed),
            cam_misses: self.cam_misses.load(Ordering::Relaxed),
            decal_hits: self.decal_hits.load(Ordering::Relaxed),
            decal_misses: self.decal_misses.load(Ordering::Relaxed),
        }
    }

    fn cam_entry(&self, pose: &CameraPose) -> Arc<CamEntry> {
        let key = PoseKey::of(pose);
        if let Some(v) = lock(&self.cam_cache).get(&key) {
            self.cam_hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.cam_misses.fetch_add(1, Ordering::Relaxed);
        // Build outside the lock so workers rendering different fresh
        // poses don't serialize on each other's geometry.
        let map = self.rig.warp_map(pose);
        let cov = self.rig.coverage(&map);
        let e = Arc::new(CamEntry { map, cov });
        lock(&self.cam_cache).insert(key, Arc::clone(&e));
        e
    }

    fn decal_entry(
        &self,
        scenario: &AttackScenario,
        i: usize,
        pose: &CameraPose,
        mask: &Plane,
    ) -> Arc<DecalEntry> {
        let key = (i as u32, PoseKey::of(pose));
        if let Some(v) = lock(&self.decal_cache).get(&key) {
            self.decal_hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.decal_misses.fetch_add(1, Ordering::Relaxed);
        let map = scenario.decal_map(i, pose, None);
        let alpha = mask_on_image(&map, mask);
        let rows = map.dst_row_span();
        let e = Arc::new(DecalEntry { map, alpha, rows });
        lock(&self.decal_cache).insert(key, Arc::clone(&e));
        e
    }
}

/// Profile-stage bookkeeping: charge the elapsed time to `key` and
/// restart the clock (no-ops when profiling is off).
fn mark(prev: Option<Instant>, key: &str) -> Option<Instant> {
    prev.map(|t| {
        profile::add_sample(key, t.elapsed().as_nanos() as u64);
        Instant::now()
    })
}
