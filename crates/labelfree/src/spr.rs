//! Surface plasmon resonance sensing.
//!
//! §2.3: "If the excitation frequency matches the oscillation frequency
//! of surface charge density, electromagnetic waves propagate along the
//! interface… as soon as the dielectric changes (because the target
//! molecules bind the receptor), there is also a change in the
//! refractive index."
//!
//! The model is the standard biosensing chain: Langmuir binding →
//! adsorbed protein mass → refractive-index increment (de Feijter) →
//! resonance shift in response units (1 RU = 10⁻⁶ refractive-index
//! units ≈ 1 pg/mm² of protein).

use bios_units::Molar;

/// Angular sensitivity: millidegrees of resonance shift per 1000 RU.
const MILLIDEG_PER_KILO_RU: f64 = 100.0;

/// An SPR channel functionalized with a receptor layer.
///
/// # Examples
///
/// ```
/// use bios_labelfree::SprSensor;
/// use bios_units::Molar;
///
/// let spr = SprSensor::biacore_like();
/// // Half of the 1200 RU saturation response exactly at the 10 nM K_D.
/// let half = spr.response_units(Molar::from_nano_molar(10.0));
/// assert!((half / 1200.0 - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SprSensor {
    /// Receptor surface density, pg-equivalent capacity per mm² at full
    /// occupancy (R_max in instrument terms, in RU).
    r_max_ru: f64,
    /// Receptor–analyte dissociation constant.
    kd: Molar,
    /// Baseline instrument noise, RU (RMS).
    noise_ru: f64,
}

impl SprSensor {
    /// A typical research-grade instrument channel: R_max 1200 RU,
    /// nanomolar antibody affinity, 0.3 RU noise.
    #[must_use]
    pub fn biacore_like() -> SprSensor {
        SprSensor {
            r_max_ru: 1200.0,
            kd: Molar::from_nano_molar(10.0),
            noise_ru: 0.3,
        }
    }

    /// Equilibrium response at analyte concentration `c`, in RU.
    #[must_use]
    pub fn response_units(&self, c: Molar) -> f64 {
        let x = c.as_molar().max(0.0);
        self.r_max_ru * x / (self.kd.as_molar() + x)
    }

    /// The resonance-angle shift corresponding to a response, in
    /// millidegrees.
    #[must_use]
    pub fn angle_shift_millideg(&self, response_ru: f64) -> f64 {
        response_ru / 1000.0 * MILLIDEG_PER_KILO_RU
    }

    /// 3σ detection limit in concentration units: the analyte level
    /// whose equilibrium response equals three noise RMS.
    #[must_use]
    pub fn detection_limit(&self) -> Molar {
        let r_min = 3.0 * self.noise_ru;
        // Invert the Langmuir response: c = K_D·r/(R_max − r).
        Molar::from_molar(self.kd.as_molar() * r_min / (self.r_max_ru - r_min))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn langmuir_shape() {
        let s = SprSensor::biacore_like();
        assert_eq!(s.response_units(Molar::ZERO), 0.0);
        let r = s.response_units(Molar::from_micro_molar(10.0));
        assert!(r > 0.99 * s.r_max_ru);
        assert!(r <= s.r_max_ru);
    }

    #[test]
    fn detection_limit_in_sub_nanomolar_band() {
        // 0.3 RU noise on a 1200 RU channel with 10 nM K_D →
        // 3σ ≈ 0.9/1199 · 10 nM ≈ 7.5 pM.
        let lod = SprSensor::biacore_like().detection_limit();
        assert!(
            lod.as_nano_molar() > 0.001 && lod.as_nano_molar() < 0.1,
            "LOD {} nM",
            lod.as_nano_molar()
        );
    }

    #[test]
    fn quieter_instrument_detects_less() {
        let loud = SprSensor {
            noise_ru: 1.0,
            ..SprSensor::biacore_like()
        };
        let quiet = SprSensor {
            noise_ru: 0.1,
            ..SprSensor::biacore_like()
        };
        assert!(quiet.detection_limit() < loud.detection_limit());
    }

    fn sensor(r_max_ru: f64, kd: Molar, noise_ru: f64) -> SprSensor {
        SprSensor {
            r_max_ru,
            kd,
            noise_ru,
        }
    }

    /// SPR response is bounded by R_max and monotone in concentration.
    #[test]
    fn spr_response_bounded_and_monotone() {
        bios_prng::cases(0x0601, 64, |rng| {
            let r_max = rng.uniform_in(100.0, 5000.0);
            let kd_nano = rng.log_uniform_in(0.1, 1000.0);
            let c1 = rng.uniform_in(0.0, 1e4);
            let dc = rng.uniform_in(0.0, 1e4);
            let s = sensor(r_max, Molar::from_nano_molar(kd_nano), 0.3);
            let lo = s.response_units(Molar::from_nano_molar(c1));
            let hi = s.response_units(Molar::from_nano_molar(c1 + dc));
            assert!(lo >= 0.0);
            assert!(hi >= lo);
            assert!(hi <= r_max);
        });
    }

    /// SPR detection limit is monotone in instrument noise and in K_D.
    #[test]
    fn spr_lod_monotonicities() {
        bios_prng::cases(0x0602, 64, |rng| {
            let kd_nano = rng.uniform_in(1.0, 100.0);
            let noise = rng.uniform_in(0.05, 2.0);
            let factor = rng.uniform_in(1.5, 5.0);
            let base = sensor(1200.0, Molar::from_nano_molar(kd_nano), noise);
            let noisier = sensor(1200.0, Molar::from_nano_molar(kd_nano), noise * factor);
            assert!(noisier.detection_limit() > base.detection_limit());
            let weaker = sensor(1200.0, Molar::from_nano_molar(kd_nano * factor), noise);
            assert!(weaker.detection_limit() > base.detection_limit());
        });
    }

    #[test]
    fn angle_shift_is_linear_in_response() {
        let s = SprSensor::biacore_like();
        let a1 = s.angle_shift_millideg(100.0);
        let a2 = s.angle_shift_millideg(200.0);
        assert!((a2 / a1 - 2.0).abs() < 1e-12);
    }
}
