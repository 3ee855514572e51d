//! Analog-to-digital conversion.

use bios_units::Volts;

/// An ideal mid-tread ADC with `bits` resolution over `±full_scale`.
///
/// §2.5 of the paper notes that electrochemical signals are analog and
/// that integrating the converter on-chip is part of the platform; the
/// quantization step here is the last noise source in the simulated
/// chain.
///
/// # Examples
///
/// ```
/// use bios_instrument::Adc;
/// use bios_units::Volts;
///
/// let adc = Adc::new(12, Volts::from_volts(3.3));
/// let code = adc.quantize(Volts::from_volts(1.0));
/// let v = adc.reconstruct(code);
/// assert!((v.as_volts() - 1.0).abs() < adc.lsb().as_volts());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adc {
    bits: u8,
    full_scale_milli: i64,
}

impl Adc {
    /// Creates a converter.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ bits ≤ 24` and the full scale is positive.
    #[must_use]
    pub fn new(bits: u8, full_scale: Volts) -> Adc {
        assert!((2..=24).contains(&bits), "resolution must be 2–24 bits");
        assert!(full_scale.as_volts() > 0.0, "full scale must be positive");
        Adc {
            bits,
            full_scale_milli: (full_scale.as_milli_volts()).round() as i64,
        }
    }

    /// Full-scale voltage (codes span `±full_scale`).
    #[must_use]
    pub fn full_scale(&self) -> Volts {
        Volts::from_milli_volts(self.full_scale_milli as f64)
    }

    /// The voltage of one least-significant bit.
    #[must_use]
    pub fn lsb(&self) -> Volts {
        Volts::from_volts(2.0 * self.full_scale().as_volts() / self.levels() as f64)
    }

    /// Number of quantization levels, `2^bits`.
    #[must_use]
    pub fn levels(&self) -> u64 {
        1u64 << self.bits
    }

    /// Quantizes a voltage to a signed code, clamping out-of-range
    /// inputs.
    #[must_use]
    pub fn quantize(&self, v: Volts) -> i64 {
        let half = (self.levels() / 2) as i64;
        let code = (v.as_volts() / self.lsb().as_volts()).round() as i64;
        code.clamp(-half, half - 1)
    }

    /// Reconstructs the analog value of a code.
    #[must_use]
    pub fn reconstruct(&self, code: i64) -> Volts {
        Volts::from_volts(code as f64 * self.lsb().as_volts())
    }

    /// Quantize-then-reconstruct in one step — the effective measured
    /// voltage.
    #[must_use]
    pub fn digitize(&self, v: Volts) -> Volts {
        self.reconstruct(self.quantize(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adc() -> Adc {
        Adc::new(12, Volts::from_volts(3.3))
    }

    #[test]
    fn lsb_for_12_bits() {
        // 6.6 V span / 4096 ≈ 1.61 mV.
        assert!((adc().lsb().as_milli_volts() - 1.611).abs() < 0.01);
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        let a = adc();
        for k in -50..50 {
            let v = Volts::from_milli_volts(k as f64 * 13.7);
            let err = (a.digitize(v).as_volts() - v.as_volts()).abs();
            assert!(err <= a.lsb().as_volts() / 2.0 + 1e-12);
        }
    }

    #[test]
    fn clamps_out_of_range() {
        let a = adc();
        let hi = a.quantize(Volts::from_volts(10.0));
        assert_eq!(hi, (a.levels() / 2) as i64 - 1);
        let lo = a.quantize(Volts::from_volts(-10.0));
        assert_eq!(lo, -((a.levels() / 2) as i64));
    }

    #[test]
    fn more_bits_smaller_lsb() {
        let a = Adc::new(10, Volts::from_volts(3.3));
        let b = Adc::new(16, Volts::from_volts(3.3));
        assert!(b.lsb() < a.lsb());
        assert!((a.lsb().as_volts() / b.lsb().as_volts() - 64.0).abs() < 1e-9);
    }

    #[test]
    fn zero_maps_to_zero() {
        assert_eq!(adc().quantize(Volts::ZERO), 0);
        assert_eq!(adc().digitize(Volts::ZERO), Volts::ZERO);
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn silly_resolution_rejected() {
        let _ = Adc::new(32, Volts::from_volts(3.3));
    }
}
