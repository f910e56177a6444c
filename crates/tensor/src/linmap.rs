//! Sparse linear maps over spatial grids — the differentiable engine
//! behind every geometric warp (resize, rotation, perspective).
//!
//! A bilinear image warp is a *linear* function of the source pixels once
//! its parameters are fixed: each destination pixel is a weighted sum of at
//! most four source pixels. [`LinearMap`] stores that sparse matrix, and
//! [`Graph::warp`] applies it per batch item and per channel. Because the
//! map is linear, the backward pass is simply the transpose scatter, which
//! keeps gradients exact — crucial for the EOT attack pipeline where the
//! patch gradient must flow through resize → rotate → perspective chains.

use std::sync::Arc;

use crate::graph::{Graph, VarId};
use crate::tensor::Tensor;

/// One `dst += weight * src` contribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarpEntry {
    /// Flat destination pixel index (row-major over the output grid).
    pub dst: u32,
    /// Flat source pixel index (row-major over the input grid).
    pub src: u32,
    /// Interpolation weight.
    pub weight: f32,
}

/// A sparse linear map from an `in_h x in_w` grid to an `out_h x out_w`
/// grid, applied independently to every channel of every batch item.
///
/// # Examples
///
/// ```
/// use rd_tensor::{Graph, LinearMap, Tensor, WarpEntry};
///
/// // A map that flips a 1x2 image horizontally.
/// let map = LinearMap::new(
///     (1, 2),
///     (1, 2),
///     vec![
///         WarpEntry { dst: 0, src: 1, weight: 1.0 },
///         WarpEntry { dst: 1, src: 0, weight: 1.0 },
///     ],
/// );
/// let mut g = Graph::new();
/// let x = g.input(Tensor::from_vec(vec![3.0, 5.0], &[1, 1, 1, 2]));
/// let y = g.warp(x, &map.into());
/// assert_eq!(g.value(y).data(), &[5.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearMap {
    in_hw: (usize, usize),
    out_hw: (usize, usize),
    /// In the caller's order, which `Graph::warp`'s backward scatters in.
    entries: Vec<WarpEntry>,
    /// CSR row index over `srcs`/`weights` (length `out_n + 1`): each
    /// destination's entries, in their order within `entries`.
    offsets: Vec<u32>,
    srcs: Vec<u32>,
    weights: Vec<f32>,
    /// `(min, max)` destination index over all entries; `None` when empty.
    dst_bounds: Option<(u32, u32)>,
}

impl LinearMap {
    /// Builds a map from raw entries.
    ///
    /// A CSR index is built alongside so [`LinearMap::apply_plane_into`]
    /// runs as a row gather — per destination the same multiplies in the
    /// same add order as a scatter over the entries, bitwise-identical
    /// results, but SIMD-friendly and free of the scatter's
    /// read-modify-write dependence. Entries sorted by destination (the
    /// natural order for maps built by scanning the output grid
    /// row-major) index in one pass; others through a stable sort.
    ///
    /// # Panics
    ///
    /// Panics if any entry indexes outside its grid.
    pub fn new(in_hw: (usize, usize), out_hw: (usize, usize), entries: Vec<WarpEntry>) -> Self {
        let in_n = (in_hw.0 * in_hw.1) as u32;
        let out_n = (out_hw.0 * out_hw.1) as u32;
        let mut sorted = true;
        let mut prev = 0u32;
        let mut dst_bounds: Option<(u32, u32)> = None;
        for e in &entries {
            assert!(e.src < in_n, "src {} out of range {in_n}", e.src);
            assert!(e.dst < out_n, "dst {} out of range {out_n}", e.dst);
            sorted &= e.dst >= prev;
            prev = e.dst;
            dst_bounds = Some(match dst_bounds {
                None => (e.dst, e.dst),
                Some((lo, hi)) => (lo.min(e.dst), hi.max(e.dst)),
            });
        }
        // entry indices by destination, stable so each destination keeps
        // its entries' order
        let order: Vec<usize> = if sorted {
            Vec::new()
        } else {
            let mut order: Vec<usize> = (0..entries.len()).collect();
            order.sort_by_key(|&i| entries[i].dst);
            order
        };
        let at = |k: usize| &entries[if sorted { k } else { order[k] }];
        let mut offsets = Vec::with_capacity(out_n as usize + 1);
        let mut srcs = Vec::with_capacity(entries.len());
        let mut weights = Vec::with_capacity(entries.len());
        let mut i = 0usize;
        for dst in 0..out_n {
            offsets.push(i as u32);
            while i < entries.len() && at(i).dst == dst {
                srcs.push(at(i).src);
                weights.push(at(i).weight);
                i += 1;
            }
        }
        offsets.push(i as u32);
        LinearMap {
            in_hw,
            out_hw,
            entries,
            offsets,
            srcs,
            weights,
            dst_bounds,
        }
    }

    /// Input grid `(height, width)`.
    pub fn in_hw(&self) -> (usize, usize) {
        self.in_hw
    }

    /// Output grid `(height, width)`.
    pub fn out_hw(&self) -> (usize, usize) {
        self.out_hw
    }

    /// The raw entries.
    pub fn entries(&self) -> &[WarpEntry] {
        &self.entries
    }

    /// Composes two maps: `self` then `next` (i.e. `next ∘ self`).
    ///
    /// The result maps directly from `self`'s input grid to `next`'s output
    /// grid. Used by the EOT pipeline to fuse a chain of warps into one map
    /// so the patch is sampled exactly once (avoiding compounding blur).
    ///
    /// # Panics
    ///
    /// Panics if `next`'s input grid differs from `self`'s output grid.
    pub fn then(&self, next: &LinearMap) -> LinearMap {
        assert_eq!(
            self.out_hw, next.in_hw,
            "cannot compose: intermediate grids differ"
        );
        // Bucket self's entries by destination (== next's source).
        let mid_n = self.out_hw.0 * self.out_hw.1;
        let mut buckets: Vec<Vec<(u32, f32)>> = vec![Vec::new(); mid_n];
        for e in &self.entries {
            buckets[e.dst as usize].push((e.src, e.weight));
        }
        let mut entries = Vec::with_capacity(next.entries.len() * 2);
        for e in &next.entries {
            for &(src, w) in &buckets[e.src as usize] {
                entries.push(WarpEntry {
                    dst: e.dst,
                    src,
                    weight: e.weight * w,
                });
            }
        }
        LinearMap::new(self.in_hw, next.out_hw, entries)
    }

    /// The half-open row span `[lo, hi)` of the output grid that this map
    /// can write to; `(0, 0)` for a map with no entries.
    ///
    /// Bounded maps (see `homography_bounded` in `rd-vision`) touch only a
    /// few rows of the destination; callers compositing through such a map
    /// can restrict their pixel loops to this span.
    pub fn dst_row_span(&self) -> (usize, usize) {
        match self.dst_bounds {
            None => (0, 0),
            Some((lo, hi)) => {
                let w = self.out_hw.1.max(1);
                (lo as usize / w, hi as usize / w + 1)
            }
        }
    }

    /// Applies the map to a plain single-channel buffer (used for warping
    /// alpha masks, which are not differentiated through).
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` differs from the input grid size.
    pub fn apply_plane(&self, src: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.out_hw.0 * self.out_hw.1];
        self.apply_plane_into(src, &mut out);
        out
    }

    /// Like [`LinearMap::apply_plane`] but writes into a caller-provided
    /// buffer (typically runtime-arena scratch), overwriting its contents.
    ///
    /// Bitwise-identical to `apply_plane`: the CSR gather accumulates each
    /// row from `0.0` in entry order, which is the same add sequence the
    /// zero-fill + scatter performs.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `out` do not match the grid sizes.
    pub fn apply_plane_into(&self, src: &[f32], out: &mut [f32]) {
        assert_eq!(src.len(), self.in_hw.0 * self.in_hw.1);
        assert_eq!(out.len(), self.out_hw.0 * self.out_hw.1);
        crate::simd::sparse_gather(&self.offsets, &self.srcs, &self.weights, src, out);
    }
}

impl Graph {
    /// Applies a [`LinearMap`] to every channel of every batch item of an
    /// NCHW node.
    ///
    /// # Panics
    ///
    /// Panics if the node's spatial dims differ from the map's input grid.
    pub fn warp(&mut self, x: VarId, map: &Arc<LinearMap>) -> VarId {
        self.eager("warp");
        let xv = self.value(x);
        assert_eq!(xv.shape().len(), 4, "warp input must be NCHW");
        let (n, c, h, w) = (xv.shape()[0], xv.shape()[1], xv.shape()[2], xv.shape()[3]);
        assert_eq!((h, w), map.in_hw, "warp grid mismatch");
        let (ho, wo) = map.out_hw;
        let planes = n * c;
        let in_n = h * w;
        let out_n = ho * wo;
        // Planes are independent; fan them out in fixed groups when the
        // gather is big enough to amortise the pool bookkeeping.
        let big = planes > 1 && planes * map.entries.len() >= 1 << 14;
        let mut out = Tensor::zeros(&[n, c, ho, wo]);
        {
            let xd = xv.data();
            let od = out.data_mut();
            let gather = |nc: usize, dst: &mut [f32]| {
                map.apply_plane_into(&xd[nc * in_n..(nc + 1) * in_n], dst);
            };
            if big {
                let per = planes.div_ceil(crate::parallel::groups_for(planes));
                crate::parallel::for_each_chunk_mut(od, per * out_n, |gi, oc| {
                    for (li, op) in oc.chunks_mut(out_n).enumerate() {
                        gather(gi * per + li, op);
                    }
                });
            } else {
                for nc in 0..planes {
                    gather(nc, &mut od[nc * out_n..(nc + 1) * out_n]);
                }
            }
        }
        let map = Arc::clone(map);
        self.record(
            "warp",
            &[x],
            &[("out_h", ho), ("out_w", wo)],
            out,
            Some(Box::new(move |g, _vals, grads| {
                let gd = g.data();
                let entries = &map.entries;
                let scatter = |nc: usize, gxplane: &mut [f32]| {
                    let goff = nc * out_n;
                    for e in entries {
                        gxplane[e.src as usize] += e.weight * gd[goff + e.dst as usize];
                    }
                };
                let gx = grads[x.0].data_mut();
                if big {
                    let per = planes.div_ceil(crate::parallel::groups_for(planes));
                    crate::parallel::for_each_chunk_mut(gx, per * in_n, |gi, gxc| {
                        for (li, gxp) in gxc.chunks_mut(in_n).enumerate() {
                            scatter(gi * per + li, gxp);
                        }
                    });
                } else {
                    for nc in 0..planes {
                        scatter(nc, &mut gx[nc * in_n..(nc + 1) * in_n]);
                    }
                }
            })),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{assert_grads_close, numeric_grad};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// `per_dst` random entries for each destination, in destination
    /// order.
    fn random_map(
        rng: &mut StdRng,
        in_hw: (usize, usize),
        out_hw: (usize, usize),
        per_dst: usize,
    ) -> LinearMap {
        let in_n = (in_hw.0 * in_hw.1) as u32;
        let out_n = out_hw.0 * out_hw.1;
        let mut entries = Vec::new();
        for d in 0..out_n {
            for _ in 0..per_dst {
                entries.push(WarpEntry {
                    dst: d as u32,
                    src: rng.gen_range(0..in_n),
                    weight: rng.gen_range(-1.0..1.0),
                });
            }
        }
        LinearMap::new(in_hw, out_hw, entries)
    }

    #[test]
    fn identity_map() {
        let entries = (0..6)
            .map(|i| WarpEntry {
                dst: i,
                src: i,
                weight: 1.0,
            })
            .collect();
        let map: Arc<LinearMap> = LinearMap::new((2, 3), (2, 3), entries).into();
        let mut g = Graph::new();
        let x0 = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[1, 1, 2, 3]);
        let x = g.input(x0.clone());
        let y = g.warp(x, &map);
        assert_eq!(g.value(y).data(), x0.data());
    }

    #[test]
    fn warp_grad_matches_numeric() {
        let mut rng = StdRng::seed_from_u64(17);
        let map: Arc<LinearMap> = random_map(&mut rng, (3, 3), (2, 2), 2).into();
        let x0 = Tensor::randn(&mut rng, &[2, 2, 3, 3], 1.0);
        let run = |x0: &Tensor| {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let y = g.warp(x, &map);
            let y2 = g.mul(y, y);
            let loss = g.sum_all(y2);
            (g, x, loss)
        };
        let (g, x, loss) = run(&x0);
        let grads = g.backward(loss);
        let num = numeric_grad(
            |t| {
                let (g, _, loss) = run(t);
                g.value(loss).data()[0]
            },
            &x0,
            1e-3,
        );
        assert_grads_close(grads.get(x), &num, 0.02);
    }

    #[test]
    fn composition_equals_sequential_application() {
        let mut rng = StdRng::seed_from_u64(4);
        let m1 = random_map(&mut rng, (3, 3), (4, 2), 2);
        let m2 = random_map(&mut rng, (4, 2), (2, 2), 2);
        let fused: Arc<LinearMap> = m1.then(&m2).into();
        let (m1, m2): (Arc<_>, Arc<_>) = (m1.into(), m2.into());
        let x0 = Tensor::randn(&mut rng, &[1, 1, 3, 3], 1.0);
        let mut g = Graph::new();
        let x = g.input(x0.clone());
        let a = g.warp(x, &m1);
        let b = g.warp(a, &m2);
        let mut g2 = Graph::new();
        let x2 = g2.input(x0);
        let c = g2.warp(x2, &fused);
        for (p, q) in g.value(b).data().iter().zip(g2.value(c).data()) {
            assert!((p - q).abs() < 1e-5, "{p} vs {q}");
        }
    }

    #[test]
    fn apply_plane_matches_warp() {
        let mut rng = StdRng::seed_from_u64(12);
        let map = random_map(&mut rng, (4, 4), (3, 3), 2);
        let src: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let plane = map.apply_plane(&src);
        let map: Arc<LinearMap> = map.into();
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(src, &[1, 1, 4, 4]));
        let y = g.warp(x, &map);
        assert_eq!(g.value(y).data(), &plane[..]);
    }

    #[test]
    fn csr_gather_bitwise_matches_entry_scatter() {
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..20 {
            let sorted = random_map(&mut rng, (7, 5), (6, 9), 4);
            // the same entries shuffled: each destination's four entries
            // land apart and out of order, and with more than two terms
            // the order changes the rounded sum
            let mut entries = sorted.entries().to_vec();
            entries.shuffle(&mut rng);
            let shuffled = LinearMap::new((7, 5), (6, 9), entries);
            let src: Vec<f32> = (0..35).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            for map in [&sorted, &shuffled] {
                let mut reference = vec![0.0f32; 54];
                for e in map.entries() {
                    reference[e.dst as usize] += e.weight * src[e.src as usize];
                }
                let via_apply = map.apply_plane(&src);
                // Dirty output buffer: apply_plane_into must overwrite fully.
                let mut via_into = vec![f32::NAN; 54];
                map.apply_plane_into(&src, &mut via_into);
                for i in 0..54 {
                    assert_eq!(reference[i].to_bits(), via_apply[i].to_bits());
                    assert_eq!(reference[i].to_bits(), via_into[i].to_bits());
                }
            }
        }
    }

    #[test]
    fn unsorted_entries_apply_by_destination() {
        let entries = vec![
            WarpEntry {
                dst: 3,
                src: 0,
                weight: 0.5,
            },
            WarpEntry {
                dst: 1,
                src: 1,
                weight: -1.5,
            },
        ];
        let map = LinearMap::new((1, 2), (2, 2), entries);
        assert_eq!(map.dst_row_span(), (0, 2));
        let out = map.apply_plane(&[2.0, 4.0]);
        assert_eq!(out, vec![0.0, -6.0, 0.0, 1.0]);
        let mut dirty = vec![9.0f32; 4];
        map.apply_plane_into(&[2.0, 4.0], &mut dirty);
        assert_eq!(dirty, vec![0.0, -6.0, 0.0, 1.0]);
    }

    #[test]
    fn dst_row_span_covers_touched_rows_only() {
        let entries = vec![
            WarpEntry {
                dst: 4, // row 1 of a 3x4 grid
                src: 0,
                weight: 1.0,
            },
            WarpEntry {
                dst: 7, // still row 1
                src: 0,
                weight: 1.0,
            },
        ];
        let map = LinearMap::new((1, 1), (3, 4), entries);
        assert_eq!(map.dst_row_span(), (1, 2));
        let empty = LinearMap::new((1, 1), (3, 4), Vec::new());
        assert_eq!(empty.dst_row_span(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_entries() {
        let _ = LinearMap::new(
            (2, 2),
            (2, 2),
            vec![WarpEntry {
                dst: 0,
                src: 4,
                weight: 1.0,
            }],
        );
    }
}
