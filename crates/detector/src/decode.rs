//! Decoding raw head tensors into detections, plus non-maximum
//! suppression.

use rd_scene::{GtBox, ObjectClass};
use rd_tensor::Tensor;

use crate::anchors::{head_specs, ANCHORS_PER_HEAD};

/// A decoded detection in normalized image coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Most probable class.
    pub class: ObjectClass,
    /// Softmax distribution over classes.
    pub class_probs: Vec<f32>,
    /// Objectness (sigmoid of the objectness logit).
    pub objectness: f32,
    /// Box centre x in `[0,1]`.
    pub cx: f32,
    /// Box centre y in `[0,1]`.
    pub cy: f32,
    /// Box width in `[0,1]`.
    pub w: f32,
    /// Box height in `[0,1]`.
    pub h: f32,
    /// Which head produced it (0 = coarse/stride-32, 1 = fine/stride-16).
    pub head: usize,
    /// Anchor index within the head.
    pub anchor: usize,
    /// Grid cell `(row, col)`.
    pub cell: (usize, usize),
}

impl Detection {
    /// Confidence = objectness × best class probability (YOLO convention).
    pub fn confidence(&self) -> f32 {
        self.objectness * self.class_probs[self.class.index()]
    }

    /// The detection's box as a [`GtBox`].
    pub fn to_box(&self) -> GtBox {
        GtBox {
            class: self.class,
            cx: self.cx,
            cy: self.cy,
            w: self.w,
            h: self.h,
        }
    }

    /// IoU with a ground-truth box.
    pub fn iou(&self, b: &GtBox) -> f32 {
        self.to_box().iou(b)
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

fn softmax(logits: &[f32]) -> Vec<f32> {
    let m = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&x| (x - m).exp()).collect();
    let s: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / s).collect()
}

/// Decodes one head tensor `[N, A*(5+C), S, S]` into per-image raw
/// detections above `obj_threshold`, writing into `out`.
///
/// `out` is resized to `N` entries and each inner vector is cleared and
/// refilled, so a caller in a video loop reuses the same allocations
/// frame after frame.
///
/// # Panics
///
/// Panics if the tensor shape is inconsistent with `num_classes`.
pub fn decode_head_into(
    preds: &Tensor,
    head: usize,
    num_classes: usize,
    obj_threshold: f32,
    out: &mut Vec<Vec<Detection>>,
) {
    assert_eq!(preds.shape().len(), 4);
    let (n, ch, s, s2) = (
        preds.shape()[0],
        preds.shape()[1],
        preds.shape()[2],
        preds.shape()[3],
    );
    assert_eq!(s, s2, "heads are square");
    let cpa = 5 + num_classes;
    assert_eq!(ch, ANCHORS_PER_HEAD * cpa, "channel count mismatch");
    let spec = head_specs()[head];
    out.resize_with(n, Vec::new);
    out.truncate(n);
    for (ni, dets) in out.iter_mut().enumerate() {
        dets.clear();
        for a in 0..ANCHORS_PER_HEAD {
            for cy in 0..s {
                for cx in 0..s {
                    let at = |k: usize| preds.at4(ni, a * cpa + k, cy, cx);
                    let obj = sigmoid(at(4));
                    if obj < obj_threshold {
                        continue;
                    }
                    let bx = (cx as f32 + sigmoid(at(0))) / s as f32;
                    let by = (cy as f32 + sigmoid(at(1))) / s as f32;
                    let (aw, ah) = spec.anchors[a];
                    let bw = aw * at(2).clamp(-4.0, 4.0).exp();
                    let bh = ah * at(3).clamp(-4.0, 4.0).exp();
                    let logits: Vec<f32> = (0..num_classes).map(|c| at(5 + c)).collect();
                    let probs = softmax(&logits);
                    let mut best = 0;
                    for (i, &p) in probs.iter().enumerate() {
                        if p > probs[best] {
                            best = i;
                        }
                    }
                    dets.push(Detection {
                        class: ObjectClass::from_index(best),
                        class_probs: probs,
                        objectness: obj,
                        cx: bx,
                        cy: by,
                        w: bw,
                        h: bh,
                        head,
                        anchor: a,
                        cell: (cy, cx),
                    });
                }
            }
        }
    }
}

/// In-place class-agnostic non-maximum suppression: sorts `dets` by
/// descending confidence and removes every detection overlapping a
/// higher-confidence survivor by more than `iou_threshold`.
///
/// `suppressed` is the reusable keep-mask — it is cleared and regrown
/// each call, so a per-frame caller pays no mask allocation after the
/// first frame.
pub fn nms_into(dets: &mut Vec<Detection>, iou_threshold: f32, suppressed: &mut Vec<bool>) {
    dets.sort_by(|a, b| b.confidence().total_cmp(&a.confidence()));
    suppressed.clear();
    suppressed.resize(dets.len(), false);
    for i in 0..dets.len() {
        if suppressed[i] {
            continue;
        }
        let kept = dets[i].to_box();
        for j in i + 1..dets.len() {
            if !suppressed[j] && dets[j].iou(&kept) > iou_threshold {
                suppressed[j] = true;
            }
        }
    }
    let mut idx = 0;
    dets.retain(|_| {
        let keep = !suppressed[idx];
        idx += 1;
        keep
    });
}

/// Reusable scratch for [`postprocess_into`]: per-head decode lists plus
/// the NMS keep-mask, all recycled across frames.
#[derive(Debug, Default)]
pub struct DecodeBuffers {
    coarse: Vec<Vec<Detection>>,
    fine: Vec<Vec<Detection>>,
    suppressed: Vec<bool>,
}

/// Full post-processing into caller-provided buffers: decode both heads,
/// merge per image, threshold and NMS. `out` is resized to the batch and
/// each inner vector cleared and refilled; `bufs` carries the decode
/// scratch between calls. Results are identical to [`postprocess`].
pub fn postprocess_into(
    coarse: &Tensor,
    fine: &Tensor,
    num_classes: usize,
    obj_threshold: f32,
    iou_threshold: f32,
    bufs: &mut DecodeBuffers,
    out: &mut Vec<Vec<Detection>>,
) {
    decode_head_into(coarse, 0, num_classes, obj_threshold, &mut bufs.coarse);
    decode_head_into(fine, 1, num_classes, obj_threshold, &mut bufs.fine);
    let n = bufs.coarse.len();
    out.resize_with(n, Vec::new);
    out.truncate(n);
    for (i, dets) in out.iter_mut().enumerate() {
        dets.clear();
        dets.append(&mut bufs.coarse[i]);
        dets.append(&mut bufs.fine[i]);
        nms_into(dets, iou_threshold, &mut bufs.suppressed);
    }
}

/// Full post-processing: decode both heads, merge, threshold and NMS.
/// Convenience wrapper over [`postprocess_into`].
pub fn postprocess(
    coarse: &Tensor,
    fine: &Tensor,
    num_classes: usize,
    obj_threshold: f32,
    iou_threshold: f32,
) -> Vec<Vec<Detection>> {
    let mut bufs = DecodeBuffers::default();
    let mut out = Vec::new();
    postprocess_into(
        coarse,
        fine,
        num_classes,
        obj_threshold,
        iou_threshold,
        &mut bufs,
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_head(n: usize, s: usize) -> Tensor {
        let mut t = Tensor::zeros(&[n, 30, s, s]);
        // push objectness very low everywhere
        for ni in 0..n {
            for a in 0..3 {
                for cy in 0..s {
                    for cx in 0..s {
                        t.set4(ni, a * 10 + 4, cy, cx, -10.0);
                    }
                }
            }
        }
        t
    }

    /// [`decode_head_into`] into a fresh list.
    fn decode(t: &Tensor) -> Vec<Vec<Detection>> {
        let mut out = Vec::new();
        decode_head_into(t, 0, 5, 0.3, &mut out);
        out
    }

    #[test]
    fn silent_head_yields_no_detections() {
        let t = empty_head(2, 3);
        let d = decode(&t);
        assert_eq!(d.len(), 2);
        assert!(d[0].is_empty() && d[1].is_empty());
    }

    #[test]
    fn decode_recovers_planted_box() {
        let mut t = empty_head(1, 3);
        // plant a confident detection at cell (1,2), anchor 1, class 3
        t.set4(0, 10 + 4, 1, 2, 5.0); // objectness
        t.set4(0, 10, 1, 2, 0.0); // tx -> 0.5
        t.set4(0, 10 + 1, 1, 2, 0.0); // ty -> 0.5
        t.set4(0, 10 + 2, 1, 2, 0.0); // tw -> anchor w
        t.set4(0, 10 + 3, 1, 2, 0.0);
        t.set4(0, 10 + 5 + 3, 1, 2, 8.0); // class 3 logit
        let d = decode(&t);
        assert_eq!(d[0].len(), 1);
        let det = &d[0][0];
        assert_eq!(det.class, ObjectClass::from_index(3));
        assert!((det.cx - 2.5 / 3.0).abs() < 1e-5);
        assert!((det.cy - 1.5 / 3.0).abs() < 1e-5);
        let spec = head_specs()[0];
        assert!((det.w - spec.anchors[1].0).abs() < 1e-5);
        assert!(det.objectness > 0.99);
        assert!(det.confidence() > 0.9);
    }

    #[test]
    fn nms_suppresses_overlaps_keeps_best() {
        let mk = |conf: f32, cx: f32| Detection {
            class: ObjectClass::Car,
            class_probs: vec![0.0, 0.0, 0.0, 1.0, 0.0],
            objectness: conf,
            cx,
            cy: 0.5,
            w: 0.2,
            h: 0.2,
            head: 0,
            anchor: 0,
            cell: (0, 0),
        };
        let mut kept = vec![mk(0.9, 0.50), mk(0.8, 0.52), mk(0.7, 0.9)];
        nms_into(&mut kept, 0.45, &mut Vec::new());
        assert_eq!(kept.len(), 2);
        assert!((kept[0].objectness - 0.9).abs() < 1e-6);
        assert!((kept[1].cx - 0.9).abs() < 1e-6);
    }

    #[test]
    fn reused_buffers_match_fresh_postprocess() {
        let mk_frame = |seed: f32| {
            let mut coarse = empty_head(2, 3);
            let mut fine = empty_head(2, 6);
            coarse.set4(0, 4, 1, 1, 4.0 + seed);
            coarse.set4(0, 5, 1, 1, 3.0);
            coarse.set4(1, 10 + 4, 0, 2, 3.5 - seed);
            coarse.set4(1, 10 + 7, 0, 2, 2.0);
            fine.set4(0, 20 + 4, 3, 3, 5.0);
            fine.set4(0, 20 + 6, 3, 3, 4.0 + seed);
            (coarse, fine)
        };
        let mut bufs = DecodeBuffers::default();
        let mut out = Vec::new();
        // two frames through the same buffers, each checked against the
        // allocating reference path
        for seed in [0.0, 1.5] {
            let (coarse, fine) = mk_frame(seed);
            let fresh = postprocess(&coarse, &fine, 5, 0.3, 0.45);
            postprocess_into(&coarse, &fine, 5, 0.3, 0.45, &mut bufs, &mut out);
            assert_eq!(out, fresh, "buffer reuse changed results (seed {seed})");
        }
    }

    #[test]
    fn nms_into_matches_nms() {
        let mk = |conf: f32, cx: f32| Detection {
            class: ObjectClass::Car,
            class_probs: vec![0.0, 0.0, 0.0, 1.0, 0.0],
            objectness: conf,
            cx,
            cy: 0.5,
            w: 0.2,
            h: 0.2,
            head: 0,
            anchor: 0,
            cell: (0, 0),
        };
        let dets = vec![
            mk(0.6, 0.50),
            mk(0.9, 0.52),
            mk(0.8, 0.53),
            mk(0.7, 0.90),
            mk(0.5, 0.91),
        ];
        let mut in_place = dets;
        let mut mask = vec![true; 1]; // stale mask must be rebuilt
        nms_into(&mut in_place, 0.45, &mut mask);
        // by confidence: 0.9 suppresses 0.8 and 0.6, 0.7 suppresses 0.5
        assert_eq!(in_place, vec![mk(0.9, 0.52), mk(0.7, 0.90)]);
    }

    #[test]
    fn extreme_tw_is_clamped() {
        let mut t = empty_head(1, 3);
        t.set4(0, 4, 0, 0, 5.0);
        t.set4(0, 2, 0, 0, 100.0); // absurd tw
        let d = decode(&t);
        assert!(d[0][0].w.is_finite());
        assert!(d[0][0].w < 60.0);
    }
}
