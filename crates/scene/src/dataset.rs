//! Procedural detector-training dataset.
//!
//! Stands in for the paper's private road dataset (1000 train / 71 test
//! images over 5 labels): every sample is a camera frame of a procedural
//! road world with one or two painted objects, plus mild capture
//! augmentation so the detector is robust to the evaluation conditions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rd_vision::Image;

use crate::camera::{CameraPose, CameraRig};
use crate::classes::{GtBox, ObjectClass};
use crate::physical::CaptureModel;
use crate::world::WorldScene;

/// One labelled training image.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The rendered camera frame.
    pub image: Image,
    /// Ground-truth boxes in normalized coordinates.
    pub boxes: Vec<GtBox>,
}

/// Dataset generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Camera/world geometry.
    pub rig: CameraRig,
    /// Number of images to generate.
    pub n_images: usize,
    /// Master seed; every image derives its own RNG from it.
    pub seed: u64,
    /// Apply mild capture augmentation.
    pub augment: bool,
}

impl DatasetConfig {
    /// Paper-scale test set (71 images).
    pub fn paper_test(seed: u64) -> Self {
        DatasetConfig {
            rig: CameraRig::standard(),
            n_images: 71,
            seed: seed ^ 0x5eed_7e57,
            augment: false,
        }
    }
}

/// Generates one sample deterministically from `(cfg.seed, index)`.
pub fn generate_sample(cfg: &DatasetConfig, index: usize) -> Sample {
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(index as u64 * 0x9e37_79b9));
    let rig = cfg.rig;
    for _attempt in 0..8 {
        let (ch, cw) = rig.canvas_hw;
        let mut world = WorldScene::road(ch, cw, &mut rng);
        let n_objects = rng.gen_range(1..=2);
        for _ in 0..n_objects {
            let class = ObjectClass::ALL[rng.gen_range(0..ObjectClass::COUNT)];
            let x = rng.gen_range(cw as f32 * 0.25..cw as f32 * 0.75);
            let y = rng.gen_range(ch as f32 * 0.45..ch as f32 * 0.95);
            let size = rng.gen_range(cw as f32 * 0.14..cw as f32 * 0.30);
            world.add_object(class, (x, y), size, &mut rng);
        }
        let pose = CameraPose {
            z_near: rng.gen_range(1.2..5.5),
            lateral_m: rng.gen_range(-0.4..0.4),
            yaw: rng.gen_range(-0.30..0.30),
            roll: rng.gen_range(-0.05..0.05),
        };
        let boxes: Vec<GtBox> = world
            .objects()
            .iter()
            .filter_map(|o| rig.project_rect(&pose, o.rect, o.class))
            .filter(|b| b.w > 0.06 && b.h > 0.03)
            .collect();
        if boxes.is_empty() {
            continue;
        }
        let mut image = rig.render_frame(world.canvas(), &pose);
        if cfg.augment {
            let cm = CaptureModel {
                shadow_prob: 0.15,
                ..CaptureModel::simulated()
            };
            cm.apply(&mut image, rng.gen_range(0.0..0.5), &mut rng);
        }
        return Sample { image, boxes };
    }
    // Degenerate fallback (practically unreachable): a single centred mark.
    let (ch, cw) = rig.canvas_hw;
    let mut world = WorldScene::road(ch, cw, &mut rng);
    world.add_object(
        ObjectClass::Mark,
        (cw as f32 / 2.0, ch as f32 * 0.8),
        cw as f32 * 0.25,
        &mut rng,
    );
    let pose = CameraPose::at_distance(2.5);
    let boxes = world
        .objects()
        .iter()
        .filter_map(|o| rig.project_rect(&pose, o.rect, o.class))
        .collect();
    Sample {
        image: rig.render_frame(world.canvas(), &pose),
        boxes,
    }
}

/// Generates the whole dataset.
pub fn generate(cfg: &DatasetConfig) -> Vec<Sample> {
    (0..cfg.n_images).map(|i| generate_sample(cfg, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(n: usize) -> DatasetConfig {
        DatasetConfig {
            rig: CameraRig::smoke(),
            n_images: n,
            seed: 42,
            augment: false,
        }
    }

    #[test]
    fn every_sample_has_a_visible_box() {
        let ds = generate(&smoke_cfg(24));
        assert_eq!(ds.len(), 24);
        for s in &ds {
            assert!(!s.boxes.is_empty());
            for b in &s.boxes {
                assert!(b.cx >= 0.0 && b.cx <= 1.0);
                assert!(b.cy >= 0.0 && b.cy <= 1.0);
                assert!(b.w > 0.0 && b.h > 0.0);
            }
        }
    }

    #[test]
    fn samples_are_deterministic() {
        let a = generate_sample(&smoke_cfg(4), 2);
        let b = generate_sample(&smoke_cfg(4), 2);
        assert_eq!(a.image, b.image);
        assert_eq!(a.boxes.len(), b.boxes.len());
    }

    #[test]
    fn samples_differ_across_indices() {
        let a = generate_sample(&smoke_cfg(4), 0);
        let b = generate_sample(&smoke_cfg(4), 1);
        assert_ne!(a.image, b.image);
    }

    #[test]
    fn all_classes_appear_in_a_modest_dataset() {
        let ds = generate(&smoke_cfg(60));
        let mut seen = std::collections::HashSet::new();
        for s in &ds {
            for b in &s.boxes {
                seen.insert(b.class);
            }
        }
        assert_eq!(seen.len(), ObjectClass::COUNT, "missing classes: {seen:?}");
    }

    #[test]
    fn boxes_have_reasonable_sizes() {
        let ds = generate(&smoke_cfg(30));
        let mut widths: Vec<f32> = ds
            .iter()
            .flat_map(|s| s.boxes.iter().map(|b| b.w))
            .collect();
        widths.sort_by(f32::total_cmp);
        assert!(widths[0] > 0.03);
        // clamping can produce full-width boxes for very near objects,
        // but the median must be a sensible mid-size target
        assert!(*widths.last().unwrap() <= 1.0);
        assert!(widths[widths.len() / 2] < 0.9);
    }

    #[test]
    fn augmentation_changes_pixels_but_not_labels() {
        let mut cfg = smoke_cfg(4);
        let plain = generate_sample(&cfg, 3);
        cfg.augment = true;
        let aug = generate_sample(&cfg, 3);
        assert_eq!(plain.boxes.len(), aug.boxes.len());
        assert_ne!(plain.image, aug.image);
    }
}
