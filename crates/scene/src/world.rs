//! The bird's-eye "world canvas": a patch of road surface with painted
//! objects, onto which decals are later composited.

use rand::Rng;

use rd_vision::{Image, Rgb};

use crate::classes::ObjectClass;
use crate::render::{draw_object, Rect};

/// An object painted on the world canvas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldObject {
    /// The object's class.
    pub class: ObjectClass,
    /// Its extent in world-canvas pixels.
    pub rect: Rect,
}

/// A rendered world canvas plus the objects on it.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use rd_scene::{ObjectClass, WorldScene};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut scene = WorldScene::road(160, 160, &mut rng);
/// scene.add_object(ObjectClass::Word, (80.0, 100.0), 36.0, &mut rng);
/// assert_eq!(scene.objects().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct WorldScene {
    canvas: Image,
    objects: Vec<WorldObject>,
}

impl WorldScene {
    /// Creates an asphalt canvas with texture noise, lane edge lines and a
    /// dashed centre line.
    pub fn road<R: Rng>(h: usize, w: usize, rng: &mut R) -> Self {
        let base = rng.gen_range(0.26..0.34);
        let mut canvas = Image::new(h, w, Rgb::gray(base));
        // asphalt texture
        for y in 0..h {
            for x in 0..w {
                let n: f32 = rng.gen_range(-0.03..0.03);
                let c = canvas.get(y, x);
                canvas.set(y, x, Rgb(c.0 + n, c.1 + n, c.2 + n));
            }
        }
        // lane edge lines along the travel direction (vertical on canvas)
        let lane = Rgb::gray(0.85);
        let edge_w = (w as f32 * 0.02).max(1.0) as usize;
        canvas.fill_rect(0, w / 12, h, edge_w, lane);
        canvas.fill_rect(0, w - w / 12 - edge_w, h, edge_w, lane);
        // dashed centre line
        let dash_h = h / 12;
        let mut y = 0;
        while y < h {
            canvas.fill_rect(y, w / 2 - edge_w / 2, dash_h, edge_w.max(1), lane);
            y += dash_h * 2;
        }
        WorldScene {
            canvas,
            objects: Vec::new(),
        }
    }

    /// Paints an object of `class` centred at `(x, y)` world pixels with
    /// the given nominal size, and records it.
    pub fn add_object<R: Rng>(
        &mut self,
        class: ObjectClass,
        center: (f32, f32),
        size: f32,
        rng: &mut R,
    ) {
        // aspect ratio varies slightly by class
        let (wf, hf) = match class {
            ObjectClass::Person => (0.7, 1.0),
            ObjectClass::Word => (1.5, 1.0),
            ObjectClass::Mark => (0.6, 1.0),
            ObjectClass::Car => (0.9, 1.0),
            ObjectClass::Bicycle => (1.0, 0.75),
        };
        let w = size * wf;
        let h = size * hf;
        let rect = Rect {
            y: center.1 - h / 2.0,
            x: center.0 - w / 2.0,
            h,
            w,
        };
        draw_object(&mut self.canvas, class, rect, rng);
        self.objects.push(WorldObject { class, rect });
    }

    /// The rendered canvas.
    pub fn canvas(&self) -> &Image {
        &self.canvas
    }

    /// The painted objects.
    pub fn objects(&self) -> &[WorldObject] {
        &self.objects
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn road_has_texture_and_lane_lines() {
        let mut rng = StdRng::seed_from_u64(3);
        let scene = WorldScene::road(120, 120, &mut rng);
        let img = scene.canvas();
        // texture: pixels vary
        let a = img.get(50, 50).0;
        let b = img.get(51, 53).0;
        assert!(a != b || img.get(52, 55).0 != a);
        // lane line near the left edge is bright
        let mut found_bright = false;
        for x in 0..20 {
            if img.get(60, x).0 > 0.7 {
                found_bright = true;
            }
        }
        assert!(found_bright, "no lane edge line found");
    }

    #[test]
    fn add_object_paints_and_records() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut scene = WorldScene::road(120, 120, &mut rng);
        let before: f32 = scene.canvas().data().iter().sum();
        scene.add_object(ObjectClass::Mark, (60.0, 60.0), 40.0, &mut rng);
        let after: f32 = scene.canvas().data().iter().sum();
        assert!(after > before, "painting should brighten the canvas");
        assert_eq!(scene.objects().len(), 1);
        let r = scene.objects()[0].rect;
        assert!((r.center().0 - 60.0).abs() < 1e-3);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let a = WorldScene::road(64, 64, &mut r1);
        let b = WorldScene::road(64, 64, &mut r2);
        assert_eq!(a.canvas(), b.canvas());
    }
}
