//! Patch placement and (differentiable) compositing onto scenes.
//!
//! A [`PatchPlacement`] describes where a square decal canvas lands in an
//! image: translation, scale, in-plane rotation and a perspective tilt.
//! [`PatchPlacement::to_image_map`] turns it into a [`LinearMap`] so the
//! decal's pixels stay differentiable end-to-end, and [`paste_patch`]
//! builds the full graph: warp → channel broadcast → alpha compositing.

use std::sync::Arc;

use rd_tensor::arena::ScratchBuf;
use rd_tensor::{Graph, LinearMap, Tensor, VarId};

use crate::geometry::Mat3;
use crate::image::{Image, Plane, Rgb};
use crate::warp::homography;

/// Where and how a square patch canvas is placed in an image.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatchPlacement {
    /// Destination of the patch centre, in image pixels `(x, y)`.
    pub center: (f32, f32),
    /// Image pixels per patch pixel.
    pub scale: f32,
    /// In-plane rotation in radians.
    pub rotation: f32,
    /// Perspective coefficients `(px, py)`; see [`Mat3::perspective`].
    pub perspective: (f32, f32),
}

impl PatchPlacement {
    /// An axis-aligned placement at `center` with the given `scale`.
    pub fn new(center: (f32, f32), scale: f32) -> Self {
        PatchPlacement {
            center,
            scale,
            rotation: 0.0,
            perspective: (0.0, 0.0),
        }
    }

    /// Sets the rotation (builder style).
    pub fn with_rotation(mut self, rotation: f32) -> Self {
        self.rotation = rotation;
        self
    }

    /// The forward homography mapping patch coordinates to image
    /// coordinates.
    pub fn homography(&self, patch_size: usize) -> Mat3 {
        let pc = patch_size as f32 / 2.0;
        Mat3::translation(self.center.0, self.center.1)
            .mul(&Mat3::perspective(self.perspective.0, self.perspective.1))
            .mul(&Mat3::rotation(self.rotation))
            .mul(&Mat3::scaling(self.scale, self.scale))
            .mul(&Mat3::translation(-pc, -pc))
    }

    /// Builds the sparse bilinear map from a `patch_size x patch_size`
    /// canvas onto an `image_hw` grid.
    ///
    /// # Panics
    ///
    /// Panics if the placement is degenerate (zero scale).
    pub fn to_image_map(&self, patch_size: usize, image_hw: (usize, usize)) -> LinearMap {
        let h = self.homography(patch_size);
        homography((patch_size, patch_size), image_hw, &h)
            .expect("degenerate patch placement (scale must be nonzero)")
    }
}

/// Warps a patch-canvas alpha mask onto the image grid.
pub fn mask_on_image(map: &LinearMap, mask: &Plane) -> Plane {
    let (h, w) = map.out_hw();
    Plane::from_vec(
        map.apply_plane(mask.data())
            .into_iter()
            .map(|v| v.clamp(0.0, 1.0))
            .collect(),
        h,
        w,
    )
}

/// Differentiably pastes a single-channel patch into an RGB scene batch.
///
/// * `scene` — `[N, 3, H, W]` node.
/// * `patch` — `[N, 1, p, p]` node (monochrome decal intensity).
/// * `map` — patch-canvas → image-grid map (from
///   [`PatchPlacement::to_image_map`]).
/// * `mask` — patch-canvas alpha mask (shape silhouette).
///
/// Returns the composited `[N, 3, H, W]` node. Gradients flow into both
/// the scene and the patch.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn paste_patch(
    g: &mut Graph,
    scene: VarId,
    patch: VarId,
    map: &Arc<LinearMap>,
    mask: &Plane,
) -> VarId {
    let sshape = g.value(scene).shape().to_vec();
    assert_eq!(sshape.len(), 4, "scene must be NCHW");
    assert_eq!(sshape[1], 3, "scene must be RGB");
    let n = sshape[0];
    let (h, w) = (sshape[2], sshape[3]);
    assert_eq!(map.out_hw(), (h, w), "map output must match the scene");
    let pshape = g.value(patch).shape().to_vec();
    assert_eq!(pshape.len(), 4, "patch must be NCHW");
    assert_eq!(pshape[0], n, "patch batch must match the scene");
    assert_eq!(pshape[1], 1, "patch must be single-channel (monochrome)");
    assert_eq!(
        (mask.height(), mask.width()),
        map.in_hw(),
        "mask must live on the patch canvas"
    );

    let warped = g.warp(patch, map); // [N,1,H,W]
    let warped_rgb = g.repeat_channels(warped, 3); // [N,3,H,W]
    let image_mask = mask_on_image(map, mask);
    // broadcast the mask to [N,3,H,W]
    let mut mdata = Vec::with_capacity(n * 3 * h * w);
    for _ in 0..n * 3 {
        mdata.extend_from_slice(image_mask.data());
    }
    let mask_t = Tensor::from_vec(mdata, &[n, 3, h, w]);
    g.lerp_mask(scene, warped_rgb, &mask_t)
}

/// Non-differentiable compositing of a finished gray decal onto an
/// [`Image`] (used at evaluation time, when the decal is "printed").
pub fn paste_plane(img: &mut Image, patch: &Plane, mask: &Plane, placement: &PatchPlacement) {
    assert_eq!(patch.height(), patch.width(), "patch canvas must be square");
    assert_eq!(patch.height(), mask.height());
    assert_eq!(patch.width(), mask.width());
    let map = placement.to_image_map(patch.height(), (img.height(), img.width()));
    paste_plane_map(img, patch, mask, &map);
}

/// Differentiably pastes a *colored* (3-channel) patch into an RGB scene
/// batch — the compositing path of the colored baseline attack [34].
///
/// Same contract as [`paste_patch`] but `patch` is `[N, 3, p, p]`.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn paste_patch_rgb(
    g: &mut Graph,
    scene: VarId,
    patch: VarId,
    map: &Arc<LinearMap>,
    mask: &Plane,
) -> VarId {
    let sshape = g.value(scene).shape().to_vec();
    assert_eq!(sshape.len(), 4, "scene must be NCHW");
    assert_eq!(sshape[1], 3, "scene must be RGB");
    let n = sshape[0];
    let (h, w) = (sshape[2], sshape[3]);
    assert_eq!(map.out_hw(), (h, w), "map output must match the scene");
    let pshape = g.value(patch).shape().to_vec();
    assert_eq!(pshape[0], n, "patch batch must match the scene");
    assert_eq!(pshape[1], 3, "patch must be RGB");
    let warped = g.warp(patch, map);
    let image_mask = mask_on_image(map, mask);
    let mut mdata = Vec::with_capacity(n * 3 * h * w);
    for _ in 0..n * 3 {
        mdata.extend_from_slice(image_mask.data());
    }
    let mask_t = Tensor::from_vec(mdata, &[n, 3, h, w]);
    g.lerp_mask(scene, warped, &mask_t)
}

/// Non-differentiable compositing of a gray decal through an arbitrary
/// patch-canvas → image map (used when the decal's pose comes from a
/// camera homography rather than a flat [`PatchPlacement`]).
pub fn paste_plane_map(img: &mut Image, patch: &Plane, mask: &Plane, map: &LinearMap) {
    assert_eq!((patch.height(), patch.width()), map.in_hw());
    assert_eq!((mask.height(), mask.width()), map.in_hw());
    let alpha = mask_on_image(map, mask);
    paste_plane_alpha(img, patch.data(), map, &alpha, (0, img.height()));
}

/// [`paste_plane_map`] with a precomputed image-grid alpha plane, a raw
/// patch buffer and a destination row span — the cached render fast
/// path. Bitwise-identical to the fresh call: pixels outside `rows`
/// have zero alpha by construction (the map writes nothing there) and
/// are skipped by the `a > 0.0` guard either way.
///
/// # Panics
///
/// Panics on grid-size mismatches.
pub fn paste_plane_alpha(
    img: &mut Image,
    patch: &[f32],
    map: &LinearMap,
    alpha: &Plane,
    rows: (usize, usize),
) {
    assert_eq!(patch.len(), map.in_hw().0 * map.in_hw().1);
    assert_eq!((img.height(), img.width()), map.out_hw());
    assert_eq!((alpha.height(), alpha.width()), map.out_hw());
    let mut warped = ScratchBuf::zeroed(img.height() * img.width());
    map.apply_plane_into(patch, &mut warped);
    // exactly the differentiable path's arithmetic:
    // out = img * (1 - m) + warp(patch) * m  (premultiplied convention)
    for y in rows.0..rows.1.min(img.height()) {
        for x in 0..img.width() {
            let a = alpha.get(y, x);
            if a > 0.0 {
                let v = warped[y * img.width() + x].clamp(0.0, 1.0);
                img.blend(y, x, Rgb::gray(v), a);
            }
        }
    }
}

/// Non-differentiable compositing of a *colored* patch through an
/// arbitrary map (evaluation path of the baseline [34]).
///
/// `patch_rgb` holds three planar channels of `map.in_hw()` size each.
///
/// # Panics
///
/// Panics if the buffer length is not `3 * in_h * in_w`.
pub fn paste_rgb_map(img: &mut Image, patch_rgb: &[f32], mask: &Plane, map: &LinearMap) {
    let alpha = mask_on_image(map, mask);
    paste_rgb_alpha(img, patch_rgb, map, &alpha, (0, img.height()));
}

/// [`paste_rgb_map`] with a precomputed alpha plane and row span (see
/// [`paste_plane_alpha`] for the bitwise argument).
///
/// # Panics
///
/// Panics on grid-size mismatches.
pub fn paste_rgb_alpha(
    img: &mut Image,
    patch_rgb: &[f32],
    map: &LinearMap,
    alpha: &Plane,
    rows: (usize, usize),
) {
    let (ph, pw) = map.in_hw();
    assert_eq!(patch_rgb.len(), 3 * ph * pw, "patch buffer size mismatch");
    assert_eq!((img.height(), img.width()), map.out_hw());
    assert_eq!((alpha.height(), alpha.width()), map.out_hw());
    let hw = img.height() * img.width();
    let mut planes = ScratchBuf::zeroed(3 * hw);
    for c in 0..3 {
        map.apply_plane_into(
            &patch_rgb[c * ph * pw..(c + 1) * ph * pw],
            &mut planes[c * hw..(c + 1) * hw],
        );
    }
    // premultiplied convention, matching the differentiable path exactly
    for y in rows.0..rows.1.min(img.height()) {
        for x in 0..img.width() {
            let a = alpha.get(y, x);
            if a > 0.0 {
                let i = y * img.width() + x;
                let cl = |v: f32| v.clamp(0.0, 1.0);
                img.blend(
                    y,
                    x,
                    Rgb(cl(planes[i]), cl(planes[hw + i]), cl(planes[2 * hw + i])),
                    a,
                );
            }
        }
    }
}

/// Evenly spreads `n` placements around a ring of `radius` pixels centred
/// at `center` — the paper's layout for its N decals around the target
/// road marking (Fig. 6).
pub fn ring_layout(center: (f32, f32), radius: f32, n: usize, scale: f32) -> Vec<PatchPlacement> {
    (0..n)
        .map(|i| {
            let a = std::f32::consts::TAU * i as f32 / n as f32 - std::f32::consts::FRAC_PI_2;
            PatchPlacement::new(
                (center.0 + radius * a.cos(), center.1 + radius * a.sin()),
                scale,
            )
            .with_rotation(a)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::{mask as shape_mask, Shape};

    #[test]
    fn homography_sends_patch_center_to_target() {
        let p = PatchPlacement::new((30.0, 20.0), 2.0).with_rotation(0.7);
        let h = p.homography(16);
        let (x, y) = h.apply(8.0, 8.0);
        assert!((x - 30.0).abs() < 1e-3 && (y - 20.0).abs() < 1e-3);
    }

    #[test]
    fn scale_expands_footprint() {
        let small = PatchPlacement::new((32.0, 32.0), 1.0).to_image_map(8, (64, 64));
        let big = PatchPlacement::new((32.0, 32.0), 3.0).to_image_map(8, (64, 64));
        let ones = Plane::new(8, 8, 1.0);
        let a = mask_on_image(&small, &ones);
        let b = mask_on_image(&big, &ones);
        let ca: f32 = a.data().iter().sum();
        let cb: f32 = b.data().iter().sum();
        assert!(
            cb > ca * 6.0,
            "3x scale should cover ~9x the area: {ca} vs {cb}"
        );
    }

    #[test]
    fn paste_patch_changes_only_masked_region() {
        let mut g = Graph::new();
        let scene = g.input(Tensor::full(&[1, 3, 32, 32], 0.5));
        let patch = g.input(Tensor::zeros(&[1, 1, 8, 8])); // black decal
        let placement = PatchPlacement::new((16.0, 16.0), 2.0);
        let map: Arc<LinearMap> = placement.to_image_map(8, (32, 32)).into();
        let m = shape_mask(Shape::Square, 8);
        let out = paste_patch(&mut g, scene, patch, &map, &m);
        let v = g.value(out);
        // centre is black now
        assert!(v.at4(0, 0, 16, 16) < 0.1);
        // far corner untouched
        assert!((v.at4(0, 2, 2, 2) - 0.5).abs() < 1e-4);
    }

    #[test]
    fn paste_patch_gradient_reaches_patch() {
        let mut g = Graph::new();
        let scene = g.input(Tensor::full(&[1, 3, 24, 24], 0.5));
        let patch = g.input(Tensor::full(&[1, 1, 8, 8], 0.3));
        let placement = PatchPlacement::new((12.0, 12.0), 2.0);
        let map: Arc<LinearMap> = placement.to_image_map(8, (24, 24)).into();
        let m = shape_mask(Shape::Star, 8);
        let out = paste_patch(&mut g, scene, patch, &map, &m);
        let loss = g.sum_all(out);
        let grads = g.backward(loss);
        let gp = grads.get(patch);
        assert!(gp.sum() > 0.0, "patch must receive gradient");
        // pixels well outside the star silhouette receive ~none
        assert!(gp.at4(0, 0, 0, 0).abs() < 0.2);
    }

    #[test]
    fn paste_plane_matches_differentiable_path_exactly() {
        let patch_t = Tensor::full(&[1, 1, 8, 8], 0.9);
        let placement = PatchPlacement::new((16.0, 16.0), 2.0);
        let m = shape_mask(Shape::Circle, 8);
        // graph path
        let mut g = Graph::new();
        let scene = g.input(Tensor::full(&[1, 3, 32, 32], 0.2));
        let patch = g.input(patch_t);
        let map: Arc<LinearMap> = placement.to_image_map(8, (32, 32)).into();
        let out = paste_patch(&mut g, scene, patch, &map, &m);
        let graph_img = Image::from_tensor(g.value(out), 0);
        // plain path
        let mut img = Image::new(32, 32, Rgb::gray(0.2));
        let p = Plane::new(8, 8, 0.9);
        paste_plane(&mut img, &p, &m, &placement);
        // the two paths share the premultiplied convention and must agree
        // to float precision (adversarial patterns are brittle, so eval
        // must see exactly what training optimized)
        let mut max_diff = 0.0f32;
        for (a, b) in img.data().iter().zip(graph_img.data()) {
            max_diff = max_diff.max((a - b).abs());
        }
        assert!(max_diff < 1e-4, "paths diverge at a pixel by {max_diff}");
    }

    #[test]
    fn ring_layout_properties() {
        let ring = ring_layout((50.0, 50.0), 20.0, 4, 1.5);
        assert_eq!(ring.len(), 4);
        for p in &ring {
            let dx = p.center.0 - 50.0;
            let dy = p.center.1 - 50.0;
            assert!(((dx * dx + dy * dy).sqrt() - 20.0).abs() < 1e-3);
            assert_eq!(p.scale, 1.5);
        }
        // distinct angles
        assert_ne!(ring[0].center, ring[2].center);
    }
}
