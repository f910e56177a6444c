//! The digital→physical→digital channel: printing a decal and re-capturing
//! it with a moving camera.
//!
//! This module is the reproduction's stand-in for the paper's physical
//! experiments (printed patches in an underground parking lot). It models
//! the two mechanisms the paper leans on:
//!
//! 1. **Printing error** — printers compress gamut and shift colors, which
//!    devastates *colorful* adversarial patches (the paper's explanation
//!    for why the baseline [34] collapses in the real world) while barely
//!    touching monochrome decals.
//! 2. **Capture variation** — exposure and gamma drift, motion blur that
//!    grows with speed, sensor noise and cast shadows.

use rand::Rng;

use rd_tensor::Tensor;
use rd_vision::Image;

/// Printer model: systematic per-channel color error plus gamut
/// compression toward neutral.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrintModel {
    /// Std-dev of the systematic per-channel color bias for *colored*
    /// content (sampled once per print).
    pub color_bias_std: f32,
    /// Fraction of chroma lost to gamut compression (0 = perfect printer).
    pub gamut_compression: f32,
    /// Std-dev of the bias for monochrome content (ink density error).
    pub mono_bias_std: f32,
    /// Per-pixel print-grain noise std-dev.
    pub grain_std: f32,
}

impl PrintModel {
    /// A consumer inkjet as assumed by the paper's discussion.
    pub fn realistic() -> Self {
        PrintModel {
            color_bias_std: 0.14,
            gamut_compression: 0.55,
            mono_bias_std: 0.02,
            grain_std: 0.01,
        }
    }

    /// A perfect printer (digital-world evaluation).
    pub fn perfect() -> Self {
        PrintModel {
            color_bias_std: 0.0,
            gamut_compression: 0.0,
            mono_bias_std: 0.0,
            grain_std: 0.0,
        }
    }

    /// Prints a patch tensor of shape `[C, k, k]` (C = 1 monochrome or
    /// C = 3 colored). Monochrome patches suffer only ink-density error;
    /// colored patches additionally get the systematic color shift and
    /// gamut compression.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 3 with 1 or 3 channels.
    pub fn print<R: Rng>(&self, patch: &Tensor, rng: &mut R) -> Tensor {
        assert_eq!(patch.shape().len(), 3, "print expects [C, k, k]");
        let c = patch.shape()[0];
        assert!(c == 1 || c == 3, "print expects 1 or 3 channels");
        let hw = patch.shape()[1] * patch.shape()[2];
        let mut out = patch.clone();
        if c == 1 {
            let bias = rng.gen_range(-1.0f32..1.0) * self.mono_bias_std;
            for v in out.data_mut() {
                let grain = rng.gen_range(-1.0f32..1.0) * self.grain_std;
                *v = (*v + bias + grain).clamp(0.02, 0.98);
            }
        } else {
            let biases: Vec<f32> = (0..3)
                .map(|_| rng.gen_range(-1.0f32..1.0) * self.color_bias_std)
                .collect();
            let data = out.data_mut();
            for i in 0..hw {
                let r = data[i];
                let g = data[hw + i];
                let b = data[2 * hw + i];
                let mean = (r + g + b) / 3.0;
                for (ch, v) in [(0usize, r), (1, g), (2, b)] {
                    let compressed = mean + (v - mean) * (1.0 - self.gamut_compression);
                    let grain = rng.gen_range(-1.0f32..1.0) * self.grain_std;
                    data[ch * hw + i] = (compressed + biases[ch] + grain).clamp(0.02, 0.98);
                }
            }
        }
        out
    }
}

/// Camera/environment model applied to every rendered frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureModel {
    /// Log-scale exposure jitter std-dev.
    pub exposure_std: f32,
    /// Log-scale gamma jitter std-dev.
    pub gamma_std: f32,
    /// Base vertical blur radius (px).
    pub blur_base: f32,
    /// Additional blur radius per m/frame of camera motion.
    pub blur_per_mpf: f32,
    /// Sensor noise std-dev.
    pub noise_std: f32,
    /// Probability that a frame contains a cast shadow.
    pub shadow_prob: f32,
}

impl CaptureModel {
    /// Parking-lot conditions (the paper's real-world scene).
    pub fn realistic() -> Self {
        CaptureModel {
            exposure_std: 0.08,
            gamma_std: 0.08,
            blur_base: 0.2,
            blur_per_mpf: 5.5,
            noise_std: 0.015,
            shadow_prob: 0.25,
        }
    }

    /// The paper's "simulated environment" (a gray-paper mock road indoors):
    /// stable lighting, no shadows, little blur.
    pub fn simulated() -> Self {
        CaptureModel {
            exposure_std: 0.03,
            gamma_std: 0.03,
            blur_base: 0.1,
            blur_per_mpf: 3.0,
            noise_std: 0.008,
            shadow_prob: 0.0,
        }
    }

    /// No capture degradation at all (pure digital evaluation).
    pub fn off() -> Self {
        CaptureModel {
            exposure_std: 0.0,
            gamma_std: 0.0,
            blur_base: 0.0,
            blur_per_mpf: 0.0,
            noise_std: 0.0,
            shadow_prob: 0.0,
        }
    }

    /// Degrades a frame in place. `motion_m_per_frame` scales motion blur.
    ///
    /// Literally [`CaptureModel::sample_draws`] followed by
    /// [`CaptureModel::apply_draws`], so interleaved and pre-sampled
    /// randomness are bitwise-identical by construction.
    pub fn apply<R: Rng>(&self, img: &mut Image, motion_m_per_frame: f32, rng: &mut R) {
        let draws = self.sample_draws((img.height(), img.width()), rng);
        self.apply_draws(img, motion_m_per_frame, &draws);
        draws.recycle();
    }

    /// Samples every random draw one frame of [`CaptureModel::apply`]
    /// consumes, in the exact order the interleaved path draws them:
    /// exposure, gamma, the shadow gate and its parameters, then the
    /// per-pixel noise values (raw `[-2, 2)` draws; `noise_std` is
    /// applied later).
    ///
    /// Pre-sampling pins the per-run RNG to a single sequential stream
    /// ordered by frame, which frees the deterministic
    /// [`CaptureModel::apply_draws`] stage to run on any thread — the
    /// same fan-out trick the attack step uses for its EOT batch.
    pub fn sample_draws<R: Rng>(&self, image_hw: (usize, usize), rng: &mut R) -> CaptureDraws {
        let (h, w) = image_hw;
        let exposure = (rng.gen_range(-1.0f32..1.0) * self.exposure_std).exp();
        let gamma = (rng.gen_range(-1.0f32..1.0) * self.gamma_std).exp();
        let shadow = if self.shadow_prob > 0.0 && rng.gen_range(0.0..1.0) < self.shadow_prob {
            Some(ShadowDraw {
                y0: rng.gen_range(0..h),
                band: rng.gen_range(h / 10..h / 3),
                strength: rng.gen_range(0.55f32..0.8),
                skew: rng.gen_range(-(w as i64) / 4..w as i64 / 4),
            })
        } else {
            None
        };
        let noise = if self.noise_std > 0.0 {
            let mut n = rd_tensor::arena::take(3 * h * w);
            for v in n.iter_mut() {
                *v = rng.gen_range(-2.0f32..2.0);
            }
            n
        } else {
            Vec::new()
        };
        CaptureDraws {
            exposure,
            gamma,
            shadow,
            noise,
        }
    }

    /// The deterministic half of [`CaptureModel::apply`]: degrades a
    /// frame using pre-sampled randomness. Consumes no RNG.
    ///
    /// # Panics
    ///
    /// Panics if the noise buffer was sampled for a different frame size.
    pub fn apply_draws(&self, img: &mut Image, motion_m_per_frame: f32, draws: &CaptureDraws) {
        // exposure + gamma
        let (exposure, gamma) = (draws.exposure, draws.gamma);
        for v in img.data_mut() {
            *v = (v.max(0.0) * exposure).powf(gamma).clamp(0.0, 1.0);
        }
        // cast shadow: a darkened band across the road
        if let Some(s) = draws.shadow {
            let h = img.height();
            let w = img.width();
            let ShadowDraw {
                y0,
                band,
                strength,
                skew,
            } = s;
            for y in y0..(y0 + band).min(h) {
                let shift = skew * (y as i64 - y0 as i64) / band.max(1) as i64;
                for x in 0..w {
                    let sx = x as i64 + shift;
                    if sx >= 0 && (sx as usize) < w {
                        let c = img.get(y, sx as usize);
                        img.set(y, sx as usize, c.scale(strength));
                    }
                }
            }
        }
        // vertical motion blur
        let radius = (self.blur_base + self.blur_per_mpf * motion_m_per_frame).round() as usize;
        if radius > 0 {
            vertical_box_blur(img, radius);
        }
        // sensor noise
        if self.noise_std > 0.0 {
            assert_eq!(
                draws.noise.len(),
                img.data().len(),
                "noise draws sampled for a different frame size"
            );
            rd_tensor::simd::add_scaled_clamp(img.data_mut(), &draws.noise, self.noise_std);
        }
    }
}

/// Pre-sampled randomness for one frame of [`CaptureModel::apply`]; see
/// [`CaptureModel::sample_draws`].
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureDraws {
    exposure: f32,
    gamma: f32,
    shadow: Option<ShadowDraw>,
    noise: Vec<f32>,
}

impl CaptureDraws {
    /// Hands the noise buffer back to the current runtime's arena.
    pub fn recycle(self) {
        rd_tensor::arena::recycle(self.noise);
    }
}

/// The shadow band's sampled parameters (drawn only when the per-frame
/// shadow gate fires).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ShadowDraw {
    y0: usize,
    band: usize,
    strength: f32,
    skew: i64,
}

/// Separable vertical box blur of the given radius (SIMD-dispatched,
/// bitwise-identical on both backends).
fn vertical_box_blur(img: &mut Image, radius: usize) {
    let h = img.height();
    let w = img.width();
    let hw = h * w;
    let mut src = rd_tensor::arena::take(3 * hw);
    src.copy_from_slice(img.data());
    let dst = img.data_mut();
    for ch in 0..3 {
        rd_tensor::simd::box_blur_vertical(
            &src[ch * hw..(ch + 1) * hw],
            &mut dst[ch * hw..(ch + 1) * hw],
            h,
            w,
            radius,
        );
    }
    rd_tensor::arena::recycle(src);
}

/// The full digital→physical→digital pipeline toggle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalChannel {
    /// Printing model (applied once per decal).
    pub print: PrintModel,
    /// Capture model (applied per frame).
    pub capture: CaptureModel,
}

impl PhysicalChannel {
    /// The paper's real-world parking lot.
    pub fn real_world() -> Self {
        PhysicalChannel {
            print: PrintModel::realistic(),
            capture: CaptureModel::realistic(),
        }
    }

    /// The paper's indoor simulated environment.
    pub fn simulated() -> Self {
        PhysicalChannel {
            print: PrintModel::realistic(),
            capture: CaptureModel::simulated(),
        }
    }

    /// Pure digital evaluation (no physical effects).
    pub fn digital() -> Self {
        PhysicalChannel {
            print: PrintModel::perfect(),
            capture: CaptureModel::off(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rd_vision::Rgb;

    #[test]
    fn perfect_print_is_identity_within_clamp() {
        let mut rng = StdRng::seed_from_u64(1);
        let patch = Tensor::from_vec(vec![0.1, 0.5, 0.9, 0.3], &[1, 2, 2]);
        let printed = PrintModel::perfect().print(&patch, &mut rng);
        for (a, b) in printed.data().iter().zip(patch.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn colored_patches_suffer_more_than_mono() {
        let mut rng = StdRng::seed_from_u64(2);
        let pm = PrintModel::realistic();
        // a saturated colored patch
        let mut colored = Tensor::zeros(&[3, 8, 8]);
        for i in 0..64 {
            colored.data_mut()[i] = 0.9; // strong red
            colored.data_mut()[64 + i] = 0.1;
            colored.data_mut()[128 + i] = 0.15;
        }
        let mono = Tensor::full(&[1, 8, 8], 0.2);
        let mut col_err = 0.0f32;
        let mut mono_err = 0.0f32;
        for _ in 0..20 {
            let pc = pm.print(&colored, &mut rng);
            col_err += pc
                .data()
                .iter()
                .zip(colored.data())
                .map(|(a, b)| (a - b).abs())
                .sum::<f32>()
                / colored.len() as f32;
            let pmn = pm.print(&mono, &mut rng);
            mono_err += pmn
                .data()
                .iter()
                .zip(mono.data())
                .map(|(a, b)| (a - b).abs())
                .sum::<f32>()
                / mono.len() as f32;
        }
        assert!(
            col_err > mono_err * 4.0,
            "colored prints must degrade much more: {col_err} vs {mono_err}"
        );
    }

    #[test]
    fn gamut_compression_pulls_toward_neutral() {
        let mut rng = StdRng::seed_from_u64(3);
        let pm = PrintModel {
            color_bias_std: 0.0,
            gamut_compression: 0.5,
            mono_bias_std: 0.0,
            grain_std: 0.0,
        };
        let colored = Tensor::from_vec(vec![1.0, 0.0, 0.0], &[3, 1, 1]);
        let printed = pm.print(&colored, &mut rng);
        let mean = 1.0 / 3.0;
        assert!((printed.data()[0] - (mean + (1.0 - mean) * 0.5)).abs() < 1e-5);
        assert!((printed.data()[1] - mean * 0.5).abs() < 1e-5);
    }

    #[test]
    fn capture_off_is_identity() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut img = Image::new(16, 16, Rgb(0.3, 0.5, 0.7));
        let orig = img.clone();
        CaptureModel::off().apply(&mut img, 1.0, &mut rng);
        assert_eq!(img, orig);
    }

    #[test]
    fn faster_motion_blurs_more() {
        let mut rng = StdRng::seed_from_u64(5);
        // a sharp horizontal edge
        let make = || {
            let mut img = Image::new(32, 32, Rgb::BLACK);
            img.fill_rect(0, 0, 16, 32, Rgb::WHITE);
            img
        };
        let cm = CaptureModel {
            shadow_prob: 0.0,
            noise_std: 0.0,
            exposure_std: 0.0,
            gamma_std: 0.0,
            ..CaptureModel::realistic()
        };
        let mut slow = make();
        cm.apply(&mut slow, 0.4, &mut rng);
        let mut fast = make();
        cm.apply(&mut fast, 1.0, &mut rng);
        // measure edge sharpness at the transition row
        let sharp = |img: &Image| (img.get(15, 16).0 - img.get(17, 16).0).abs();
        assert!(
            sharp(&fast) < sharp(&slow),
            "fast {} should be softer than slow {}",
            sharp(&fast),
            sharp(&slow)
        );
    }

    #[test]
    fn shadow_darkens_when_forced() {
        let mut rng = StdRng::seed_from_u64(6);
        let cm = CaptureModel {
            shadow_prob: 1.0,
            exposure_std: 0.0,
            gamma_std: 0.0,
            blur_base: 0.0,
            blur_per_mpf: 0.0,
            noise_std: 0.0,
        };
        let mut img = Image::new(32, 32, Rgb::gray(0.8));
        cm.apply(&mut img, 0.0, &mut rng);
        let min = img.data().iter().cloned().fold(f32::INFINITY, f32::min);
        assert!(min < 0.7, "a shadow band should darken pixels, min {min}");
    }

    #[test]
    fn blur_preserves_mean() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut img = Image::new(24, 24, Rgb::BLACK);
        img.fill_rect(6, 6, 8, 8, Rgb::WHITE);
        let before: f32 = img.data().iter().sum();
        let cm = CaptureModel {
            shadow_prob: 0.0,
            noise_std: 0.0,
            exposure_std: 0.0,
            gamma_std: 0.0,
            blur_base: 2.0,
            blur_per_mpf: 0.0,
        };
        cm.apply(&mut img, 0.0, &mut rng);
        let after: f32 = img.data().iter().sum();
        // box blur loses a little mass at the border only
        assert!((before - after).abs() / before < 0.15);
    }
}
