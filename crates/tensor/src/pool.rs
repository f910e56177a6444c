//! Max pooling and nearest-neighbour upsampling.
//!
//! Both ops are embarrassingly parallel over `N*C` planes. Each has one
//! per-plane forward kernel, [`max_pool_plane`] and [`upsample2x_plane`]:
//! `InferPlan` calls them per channel of a sample, and the batched
//! forwards ([`max_pool_forward`], [`upsample2x_forward`]) that the tape
//! closures here and `TrainPlan` call run them per plane, fanning large
//! inputs out across [`crate::parallel`] in fixed groups (disjoint
//! output chunks, so determinism is structural). The serial-vs-parallel
//! gating only decides which thread touches a plane, never its
//! arithmetic.

use crate::graph::{Graph, VarId};
use crate::tensor::Tensor;

/// Below this much per-op work the plane loops stay serial — the
/// worker-pool bookkeeping would cost more than it saves.
const PAR_THRESHOLD: usize = 1 << 14;

/// Max-pool forward of one `h×w` plane into `ho×wo`. Each window keeps
/// the first value `v > best` from `−∞`, so a NaN never wins and an
/// all-NaN window gives `−∞`; ties pick the first index (darknet
/// semantics). With `ARGMAX`, the plane-relative index of every
/// window's winner goes into `argmax`; without, `argmax` is untouched.
#[allow(clippy::too_many_arguments)]
pub(crate) fn max_pool_plane<const ARGMAX: bool>(
    x: &[f32],
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    ho: usize,
    wo: usize,
    out: &mut [f32],
    argmax: &mut [u32],
) {
    for oh in 0..ho {
        for ow in 0..wo {
            let mut best = f32::NEG_INFINITY;
            let mut best_idx = 0u32;
            for ki in 0..k {
                let ih = oh * stride + ki;
                if ih >= h {
                    continue;
                }
                for kj in 0..k {
                    let iw = ow * stride + kj;
                    if iw >= w {
                        continue;
                    }
                    let v = x[ih * w + iw];
                    if v > best {
                        best = v;
                        best_idx = (ih * w + iw) as u32;
                    }
                }
            }
            out[oh * wo + ow] = best;
            if ARGMAX {
                argmax[oh * wo + ow] = best_idx;
            }
        }
    }
}

/// Batched max-pool forward over `planes = N*C` planes, recording the
/// plane-relative argmax of every window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn max_pool_forward(
    xd: &[f32],
    planes: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    ho: usize,
    wo: usize,
    od: &mut [f32],
    argmax: &mut [u32],
) {
    let hw = h * w;
    let howo = ho * wo;
    let fill = |nc: usize, oplane: &mut [f32], aplane: &mut [u32]| {
        let xplane = &xd[nc * hw..(nc + 1) * hw];
        max_pool_plane::<true>(xplane, h, w, k, stride, ho, wo, oplane, aplane);
    };
    if planes > 1 && planes * k * k * howo >= PAR_THRESHOLD {
        let per = planes.div_ceil(crate::parallel::groups_for(planes));
        crate::parallel::for_each_chunk2_mut(od, argmax, per * howo, per * howo, |gi, oc, ac| {
            for (li, (op, ap)) in oc.chunks_mut(howo).zip(ac.chunks_mut(howo)).enumerate() {
                fill(gi * per + li, op, ap);
            }
        });
    } else {
        for nc in 0..planes {
            let (op, ap) = (
                &mut od[nc * howo..(nc + 1) * howo],
                &mut argmax[nc * howo..(nc + 1) * howo],
            );
            fill(nc, op, ap);
        }
    }
}

/// Batched max-pool backward: scatter-adds each output gradient onto
/// its recorded argmax position.
#[allow(clippy::too_many_arguments)]
pub(crate) fn max_pool_backward(
    gd: &[f32],
    argmax: &[u32],
    planes: usize,
    h: usize,
    w: usize,
    ho: usize,
    wo: usize,
    gx: &mut [f32],
) {
    let hw = h * w;
    let howo = ho * wo;
    let scatter = |nc: usize, gxplane: &mut [f32]| {
        for i in 0..howo {
            let src = argmax[nc * howo + i] as usize;
            gxplane[src] += gd[nc * howo + i];
        }
    };
    if planes > 1 && planes * howo >= PAR_THRESHOLD {
        let per = planes.div_ceil(crate::parallel::groups_for(planes));
        crate::parallel::for_each_chunk_mut(gx, per * hw, |gi, gxc| {
            for (li, gxp) in gxc.chunks_mut(hw).enumerate() {
                scatter(gi * per + li, gxp);
            }
        });
    } else {
        for nc in 0..planes {
            scatter(nc, &mut gx[nc * hw..(nc + 1) * hw]);
        }
    }
}

/// Nearest-neighbour 2x upsampling of one `h×w` plane into `2h×2w`.
pub(crate) fn upsample2x_plane(x: &[f32], h: usize, w: usize, out: &mut [f32]) {
    let wo = w * 2;
    for oh in 0..h * 2 {
        for ow in 0..wo {
            out[oh * wo + ow] = x[(oh / 2) * w + ow / 2];
        }
    }
}

/// Batched nearest-neighbour 2x upsampling forward; `h`/`w` are the
/// *input* plane dims.
pub(crate) fn upsample2x_forward(xd: &[f32], planes: usize, h: usize, w: usize, od: &mut [f32]) {
    let hw = h * w;
    let howo = hw * 4;
    let fill = |nc: usize, oplane: &mut [f32]| {
        upsample2x_plane(&xd[nc * hw..(nc + 1) * hw], h, w, oplane);
    };
    if planes > 1 && planes * howo >= PAR_THRESHOLD {
        let per = planes.div_ceil(crate::parallel::groups_for(planes));
        crate::parallel::for_each_chunk_mut(od, per * howo, |gi, oc| {
            for (li, op) in oc.chunks_mut(howo).enumerate() {
                fill(gi * per + li, op);
            }
        });
    } else {
        for nc in 0..planes {
            fill(nc, &mut od[nc * howo..(nc + 1) * howo]);
        }
    }
}

/// Batched 2x upsampling backward: each input pixel accumulates its
/// four output gradients in `(oh, ow)` scan order.
pub(crate) fn upsample2x_backward(gd: &[f32], planes: usize, h: usize, w: usize, gx: &mut [f32]) {
    let hw = h * w;
    let (ho, wo) = (h * 2, w * 2);
    let howo = ho * wo;
    let scatter = |nc: usize, gxplane: &mut [f32]| {
        for oh in 0..ho {
            for ow in 0..wo {
                gxplane[(oh / 2) * w + ow / 2] += gd[nc * howo + oh * wo + ow];
            }
        }
    };
    if planes > 1 && planes * howo >= PAR_THRESHOLD {
        let per = planes.div_ceil(crate::parallel::groups_for(planes));
        crate::parallel::for_each_chunk_mut(gx, per * hw, |gi, gxc| {
            for (li, gxp) in gxc.chunks_mut(hw).enumerate() {
                scatter(gi * per + li, gxp);
            }
        });
    } else {
        for nc in 0..planes {
            scatter(nc, &mut gx[nc * hw..(nc + 1) * hw]);
        }
    }
}

impl Graph {
    /// Max pooling over `k x k` windows. `pad` pads with `-inf` on the
    /// bottom/right only when needed to keep YOLOv3-tiny's `size=2,stride=1`
    /// pool shape-preserving (darknet semantics).
    ///
    /// # Panics
    ///
    /// Panics if the input is not NCHW.
    pub fn max_pool2d(&mut self, x: VarId, k: usize, stride: usize, pad: usize) -> VarId {
        let attrs = [("k", k), ("stride", stride), ("pad", pad)];
        let out_dim = |d: usize| (d + pad - k) / stride + 1;
        if self.is_shape_only() {
            let s = self.shape(x);
            let shape = [s[0], s[1], out_dim(s[2]), out_dim(s[3])];
            return self.declare("max_pool2d", &[x], &attrs, &shape);
        }
        let xv = self.value(x);
        assert_eq!(xv.shape().len(), 4, "max_pool2d input must be NCHW");
        let (n, c, h, w) = (xv.shape()[0], xv.shape()[1], xv.shape()[2], xv.shape()[3]);
        let (ho, wo) = (out_dim(h), out_dim(w));
        let mut out = Tensor::zeros(&[n, c, ho, wo]);
        let mut argmax: Vec<u32> = vec![0; n * c * ho * wo];
        let planes = n * c;
        max_pool_forward(
            xv.data(),
            planes,
            h,
            w,
            k,
            stride,
            ho,
            wo,
            out.data_mut(),
            &mut argmax,
        );
        self.record(
            "max_pool2d",
            &[x],
            &attrs,
            out,
            Some(Box::new(move |g, _vals, grads| {
                max_pool_backward(
                    g.data(),
                    &argmax,
                    planes,
                    h,
                    w,
                    ho,
                    wo,
                    grads[x.0].data_mut(),
                );
            })),
        )
    }

    /// Nearest-neighbour 2x upsampling of an NCHW node.
    pub fn upsample_nearest2x(&mut self, x: VarId) -> VarId {
        if self.is_shape_only() {
            let s = self.shape(x);
            let shape = [s[0], s[1], s[2] * 2, s[3] * 2];
            return self.declare("upsample_nearest2x", &[x], &[], &shape);
        }
        let xv = self.value(x);
        assert_eq!(xv.shape().len(), 4, "upsample input must be NCHW");
        let (n, c, h, w) = (xv.shape()[0], xv.shape()[1], xv.shape()[2], xv.shape()[3]);
        let mut out = Tensor::zeros(&[n, c, h * 2, w * 2]);
        let planes = n * c;
        upsample2x_forward(xv.data(), planes, h, w, out.data_mut());
        self.record(
            "upsample_nearest2x",
            &[x],
            &[],
            out,
            Some(Box::new(move |g, _vals, grads| {
                upsample2x_backward(g.data(), planes, h, w, grads[x.0].data_mut());
            })),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_2x2_stride2() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
            &[1, 1, 4, 4],
        ));
        let y = g.max_pool2d(x, 2, 2, 0);
        assert_eq!(g.value(y).shape(), &[1, 1, 2, 2]);
        assert_eq!(g.value(y).data(), &[4.0, 8.0, 12.0, 16.0]);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        // gradient lands only on the max positions
        let gx = grads.get(x);
        assert_eq!(gx.at4(0, 0, 1, 1), 1.0);
        assert_eq!(gx.at4(0, 0, 0, 0), 0.0);
        assert_eq!(gx.data().iter().sum::<f32>(), 4.0);
    }

    #[test]
    fn max_pool_stride1_same_shape() {
        // darknet-style size=2 stride=1 pad=1 keeps H,W
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 2, 2]));
        let y = g.max_pool2d(x, 2, 1, 1);
        assert_eq!(g.value(y).shape(), &[1, 1, 2, 2]);
        assert_eq!(g.value(y).data(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn upsample_values_and_grad() {
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec(vec![1., 2., 3., 4.], &[1, 1, 2, 2]));
        let y = g.upsample_nearest2x(x);
        assert_eq!(g.value(y).shape(), &[1, 1, 4, 4]);
        assert_eq!(g.value(y).at4(0, 0, 0, 1), 1.0);
        assert_eq!(g.value(y).at4(0, 0, 3, 3), 4.0);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        // each input pixel feeds 4 outputs
        assert!(grads.get(x).data().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn max_pool_ties_pick_first() {
        let mut g = Graph::new();
        let x = g.input(Tensor::full(&[1, 1, 2, 2], 7.0));
        let y = g.max_pool2d(x, 2, 2, 0);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).data(), &[1.0, 0.0, 0.0, 0.0]);
    }
}
