//! Deterministic fault injection for the biosensor platform.
//!
//! The paper's figures of merit (sensitivity, linear range, LOD) only
//! hold while the device stays healthy. In practice enzyme films
//! denature, CNT electrodes foul, reference electrodes drift, and
//! readout electronics glitch. This crate models those failure modes as
//! a seeded, *deterministic* [`FaultPlan`]: given the same plan, sensor
//! id, and job seed, exactly the same faults are realized — independent
//! of worker count, retry schedule, or wall-clock time — so a chaos run
//! is as reproducible as a healthy one.
//!
//! The crate is a leaf: it only knows `bios-prng` and `bios-units`.
//! Physics crates (`bios-enzyme`, `bios-electrochem`,
//! `bios-instrument`) depend on it and implement [`Faultable`] for
//! their own types, translating the realized fault fields into domain
//! effects. When no plan is armed the healthy code path is untouched.
//!
//! ```
//! use bios_faults::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::builder("bench burn-in", 42)
//!     .spec(FaultKind::FilmDenaturation, 0.5, 0.6)
//!     .spec(FaultKind::ReadoutSpike, 0.3, 0.4)
//!     .build();
//! let faults = plan.realize("glucose/gox-swcnt", 7);
//! // Same inputs, same faults — always.
//! assert_eq!(faults, plan.realize("glucose/gox-swcnt", 7));
//! ```

// The same FNV-1a `bios-core` uses for protocol fingerprints, so plan
// fingerprints can join the memo-cache key without a new hashing scheme.
use bios_prng::{fnv1a, Fnv1a, Rng, SplitMix64};

/// The taxonomy of injectable physical failures.
///
/// Each variant maps to a concrete degradation mechanism in one layer
/// of the simulator (see DESIGN.md §9 for the full table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Enzyme film loses catalytic activity (thermal/oxidative
    /// denaturation of the P450 or oxidase layer). Layer: `bios-enzyme`.
    FilmDenaturation,
    /// Passivating film grows on the working electrode, blocking a
    /// fraction of the active area. Layer: `bios-electrochem`.
    ElectrodeFouling,
    /// Pseudo-reference potential walks away from its nominal value,
    /// moving the operating point down the Tafel slope.
    /// Layer: `bios-electrochem`.
    ReferenceDrift,
    /// ADC front-end saturates early: its usable full scale shrinks.
    /// Layer: `bios-instrument`.
    AdcSaturation,
    /// One or more low-order ADC code bits stick at zero.
    /// Layer: `bios-instrument`.
    AdcStuckCode,
    /// Sporadic large-amplitude current spikes (ESD, switching
    /// transients) on the readout. Layer: `bios-instrument`.
    ReadoutSpike,
    /// Samples sporadically dropped; the chain holds the last good
    /// reading. Layer: `bios-instrument`.
    ReadoutDropout,
    /// The job fails transiently (comms timeout, bus contention) and
    /// succeeds when retried. Layer: `bios-runtime`.
    TransientGlitch,
    /// The job panics outright — a poisoned input or firmware abort.
    /// Layer: `bios-runtime`.
    WorkerPanic,
    /// The job hangs in a busy loop (livelocked solver, wedged bus) and
    /// never returns on its own — only the runtime's watchdog/deadline
    /// layer can reclaim the worker. Distinct from [`WorkerPanic`]:
    /// a panic is *loud* and caught by the unwind boundary, a stall is
    /// *silent* and needs cooperative cancellation.
    /// Layer: `bios-runtime`.
    ///
    /// [`WorkerPanic`]: FaultKind::WorkerPanic
    WorkerStall,
    /// Demand — not the device — misbehaves: requests arrive in
    /// compressed bursts instead of a smooth trickle, the overload
    /// pattern a point-of-care fleet sees when a clinic batch-uploads
    /// a ward's worth of panels at once. Unlike every other kind this
    /// fault is realized at the *arrival* level
    /// ([`FaultPlan::arrival_ticks`]), never per job: a burst changes
    /// when work shows up, not what any single job computes.
    /// Layer: `bios-gateway`.
    TrafficBurst,
    /// Demand concentrates on a few tenants instead of spreading
    /// evenly — the ward that batch-uploads ten times the panels of
    /// its neighbors. Realized at the *trace-shaping* level
    /// ([`FaultPlan::hotspot_factor`]), scaling how many requests a
    /// tenant contributes, never what one computes.
    /// Layer: `bios-shard`.
    TenantHotspot,
    /// A result is corrupted *in flight* after the physics completed —
    /// a bit-flip in a DMA buffer, a marginal DIMM, a defective core
    /// returning finite-but-wrong arithmetic. The perturbed value stays
    /// finite, so it sails past `NonFinite` quarantine; only redundant
    /// execution plus voting (or an end-to-end checksum) can catch it.
    /// Realized at the *replica* level
    /// ([`FaultPlan::silent_corruption`]), keyed to a replica-lane
    /// identity so offenders are repeatable — never inside
    /// [`FaultPlan::realize`], so healthy single-execution paths stay
    /// byte-identical whether or not the spec is armed.
    /// Layer: `bios-quorum`.
    SilentCorruption,
}

impl FaultKind {
    /// Every kind, in taxonomy order.
    pub const ALL: [FaultKind; 13] = [
        FaultKind::FilmDenaturation,
        FaultKind::ElectrodeFouling,
        FaultKind::ReferenceDrift,
        FaultKind::AdcSaturation,
        FaultKind::AdcStuckCode,
        FaultKind::ReadoutSpike,
        FaultKind::ReadoutDropout,
        FaultKind::TransientGlitch,
        FaultKind::WorkerPanic,
        FaultKind::WorkerStall,
        FaultKind::TrafficBurst,
        FaultKind::TenantHotspot,
        FaultKind::SilentCorruption,
    ];

    /// Stable tag used to derive an independent PRNG stream per kind.
    /// Tags are never renumbered (0x0C is unused), so every plan
    /// fingerprint and fault stream keeps its value.
    fn stream_tag(self) -> u64 {
        match self {
            FaultKind::FilmDenaturation => 0x01,
            FaultKind::ElectrodeFouling => 0x02,
            FaultKind::ReferenceDrift => 0x03,
            FaultKind::AdcSaturation => 0x04,
            FaultKind::AdcStuckCode => 0x05,
            FaultKind::ReadoutSpike => 0x06,
            FaultKind::ReadoutDropout => 0x07,
            FaultKind::TransientGlitch => 0x08,
            FaultKind::WorkerPanic => 0x09,
            FaultKind::WorkerStall => 0x0A,
            FaultKind::TrafficBurst => 0x0B,
            FaultKind::TenantHotspot => 0x0D,
            FaultKind::SilentCorruption => 0x0E,
        }
    }

    /// Short human label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::FilmDenaturation => "film denaturation",
            FaultKind::ElectrodeFouling => "electrode fouling",
            FaultKind::ReferenceDrift => "reference drift",
            FaultKind::AdcSaturation => "adc saturation",
            FaultKind::AdcStuckCode => "adc stuck code",
            FaultKind::ReadoutSpike => "readout spike",
            FaultKind::ReadoutDropout => "readout dropout",
            FaultKind::TransientGlitch => "transient glitch",
            FaultKind::WorkerPanic => "worker panic",
            FaultKind::WorkerStall => "worker stall",
            FaultKind::TrafficBurst => "traffic burst",
            FaultKind::TenantHotspot => "tenant hotspot",
            FaultKind::SilentCorruption => "silent corruption",
        }
    }
}

/// One injectable fault: what, how often, how hard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Which failure mode to inject.
    pub kind: FaultKind,
    /// Per-job occurrence probability in `[0, 1]`.
    pub probability: f64,
    /// Severity knob in `[0, 1]`; each kind scales it into its own
    /// physical range (see [`FaultPlan::realize`]).
    pub intensity: f64,
}

impl FaultSpec {
    /// Build a spec, clamping probability and intensity into `[0, 1]`
    /// (non-finite values clamp to zero).
    pub fn new(kind: FaultKind, probability: f64, intensity: f64) -> Self {
        let clamp01 = |v: f64| {
            if v.is_finite() {
                v.clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        Self {
            kind,
            probability: clamp01(probability),
            intensity: clamp01(intensity),
        }
    }
}

/// A named, seeded set of fault specs — the unit the runtime arms.
///
/// Plans are pure data: realizing one never mutates it, and the same
/// `(plan, sensor_id, job_seed)` triple always yields the same
/// [`RealizedFaults`]. The [`fingerprint`](FaultPlan::fingerprint)
/// joins the memo-cache key so cached healthy results can never be
/// served to a faulted run (or vice versa).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    name: String,
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Start building a plan.
    pub fn builder(name: impl Into<String>, seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            name: name.into(),
            seed,
            specs: Vec::new(),
        }
    }

    /// A ready-made "everything degrades at once" plan used by the
    /// chaos ablation: every physical fault armed with occurrence
    /// probability and severity both scaled by `intensity` in `[0, 1]`.
    /// At `intensity == 0` the plan is armed but realizes nothing, which
    /// is exactly the overhead-measurement baseline.
    pub fn chaos(seed: u64, intensity: f64) -> Self {
        let intensity = if intensity.is_finite() {
            intensity.clamp(0.0, 1.0)
        } else {
            0.0
        };
        let mut builder = Self::builder(format!("chaos(i={intensity:.2})"), seed);
        for kind in [
            FaultKind::FilmDenaturation,
            FaultKind::ElectrodeFouling,
            FaultKind::ReferenceDrift,
            FaultKind::AdcSaturation,
            FaultKind::AdcStuckCode,
            FaultKind::ReadoutSpike,
            FaultKind::ReadoutDropout,
        ] {
            builder = builder.spec(kind, 0.6 * intensity, intensity);
        }
        builder
            .spec(FaultKind::TransientGlitch, 0.4 * intensity, intensity)
            .spec(FaultKind::WorkerPanic, 0.1 * intensity, intensity)
            .spec(FaultKind::WorkerStall, 0.08 * intensity, intensity)
            .build()
    }

    /// The plan's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The plan seed all realization streams derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The armed specs.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Stable content hash: FNV-1a over a canonical binary encoding of
    /// the plan (see [`Fnv1a`]) — the name, the seed, the spec count,
    /// then each spec's kind tag, probability and intensity, in order.
    /// Two plans that would inject different faults have different
    /// fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str(&self.name);
        h.write_u64(self.seed);
        h.write_u64(self.specs.len() as u64);
        for spec in &self.specs {
            h.write_u64(spec.kind.stream_tag());
            h.write_f64(spec.probability);
            h.write_f64(spec.intensity);
        }
        h.value()
    }

    /// Realize the faults this plan injects into one job.
    ///
    /// Pure function of `(self, sensor_id, job_seed)`: each spec draws
    /// from its own `SplitMix64`-derived stream so adding or removing
    /// one spec never perturbs the others, and nothing depends on
    /// scheduling, retries, or worker count.
    pub fn realize(&self, sensor_id: &str, job_seed: u64) -> RealizedFaults {
        let id_hash = fnv1a(sensor_id.as_bytes());
        let base = SplitMix64::new(self.seed).derive(id_hash);
        let base = SplitMix64::new(base).derive(job_seed);
        let mut out = RealizedFaults::healthy();
        out.noise_seed = SplitMix64::new(base).derive(0xFA01_7BAD);
        for spec in &self.specs {
            let stream = SplitMix64::new(base).derive(spec.kind.stream_tag());
            let mut rng = Rng::seed_from_u64(stream);
            if rng.uniform() >= spec.probability {
                continue;
            }
            // Severity draw: between half and full intensity, so a ramp
            // of `intensity` produces a ramp of realized magnitudes.
            let magnitude = spec.intensity * (0.5 + 0.5 * rng.uniform());
            match spec.kind {
                FaultKind::FilmDenaturation => {
                    out.film_activity = (1.0 - 0.9 * magnitude).clamp(0.05, 1.0);
                }
                FaultKind::ElectrodeFouling => {
                    out.fouling_coverage = (0.8 * magnitude).min(0.95);
                }
                FaultKind::ReferenceDrift => {
                    // Drift away from the plateau: up to -80 mV.
                    out.reference_drift_volts = -0.08 * magnitude;
                }
                FaultKind::AdcSaturation => {
                    out.adc_saturation = (0.6 * magnitude).min(0.9);
                }
                FaultKind::AdcStuckCode => {
                    let stuck_bits = 1 + (magnitude * 4.0).floor() as u32;
                    out.adc_stuck_mask = (1u16 << stuck_bits.min(5)) - 1;
                }
                FaultKind::ReadoutSpike => {
                    out.spike_probability = 0.02 + 0.08 * magnitude;
                    out.spike_magnitude = 0.2 + 0.6 * magnitude;
                }
                FaultKind::ReadoutDropout => {
                    out.dropout_probability = 0.02 + 0.10 * magnitude;
                }
                FaultKind::TransientGlitch => {
                    out.transient_failures = 1 + (magnitude * 2.0).round() as u32;
                }
                FaultKind::WorkerPanic => {
                    out.panic_job = true;
                }
                FaultKind::WorkerStall => {
                    out.stall_job = true;
                }
                FaultKind::TrafficBurst => {
                    // Arrival-level fault: shapes *when* jobs arrive
                    // (see `arrival_ticks`), never what one computes.
                }
                FaultKind::TenantHotspot => {
                    // Trace-shaping fault: scales how many requests a
                    // tenant contributes (see `hotspot_factor`), never
                    // what one computes.
                }
                FaultKind::SilentCorruption => {
                    // Replica-level fault: perturbs what one replica
                    // *observed* (see `silent_corruption`), never what
                    // the physics computed — the healthy path must
                    // stay byte-identical with the spec armed.
                }
            }
        }
        out
    }

    /// Generates the arrival tick of each of `n` requests under this
    /// plan's [`FaultKind::TrafficBurst`] spec — the overload-test
    /// input to `bios-gateway`.
    ///
    /// Pure function of `(plan, n, base_interval_ticks)`: the burst
    /// stream derives from the plan seed and the `TrafficBurst` stream
    /// tag, so the same plan always shapes the same trace. Without a
    /// `TrafficBurst` spec (or with zero probability) the trace is a
    /// smooth trickle, one request every `base_interval_ticks` logical
    /// ticks. With one, each inter-arrival gap collapses to zero with
    /// the spec's probability, and a triggered burst drags the next
    /// `2 + ⌊14·intensity·u⌋` requests onto the same tick — higher
    /// intensity, longer bursts. Ticks are non-decreasing; the first
    /// request always arrives at tick 0.
    #[must_use]
    pub fn arrival_ticks(&self, n: usize, base_interval_ticks: u64) -> Vec<u64> {
        let spec = self
            .specs
            .iter()
            .find(|s| s.kind == FaultKind::TrafficBurst)
            .copied()
            .filter(|s| s.probability > 0.0);
        let mut out = Vec::with_capacity(n);
        let Some(spec) = spec else {
            for i in 0..n as u64 {
                out.push(i * base_interval_ticks);
            }
            return out;
        };
        let stream = SplitMix64::new(self.seed).derive(spec.kind.stream_tag());
        let mut rng = Rng::seed_from_u64(stream);
        let mut tick = 0u64;
        let mut burst_left = 0u64;
        for i in 0..n {
            if i > 0 {
                if burst_left > 0 {
                    burst_left -= 1; // same tick: the burst continues
                } else if rng.uniform() < spec.probability {
                    burst_left = 2 + (14.0 * spec.intensity * rng.uniform()).floor() as u64;
                } else {
                    tick = tick.saturating_add(base_interval_ticks.max(1));
                }
            }
            out.push(tick);
        }
        out
    }

    /// Realizes this plan's [`FaultKind::TenantHotspot`] spec for one
    /// tenant: the demand multiplier (≥ 1) that tenant's request volume
    /// carries. A cold tenant keeps factor 1; a hot one contributes
    /// `1 + ⌊7·intensity·u⌋` times the baseline, up to 8× at full
    /// intensity — the ward batch-uploading a backlog of panels.
    ///
    /// Pure function of `(plan seed, spec, tenant)` via a dedicated
    /// per-tenant stream, so adding tenants to a trace never perturbs
    /// who is hot. Without a `TenantHotspot` spec (or with zero
    /// probability) every tenant stays at factor 1.
    #[must_use]
    pub fn hotspot_factor(&self, tenant: &str) -> u64 {
        let spec = self
            .specs
            .iter()
            .find(|s| s.kind == FaultKind::TenantHotspot)
            .copied()
            .filter(|s| s.probability > 0.0);
        let Some(spec) = spec else {
            return 1;
        };
        let id_hash = fnv1a(tenant.as_bytes());
        let base = SplitMix64::new(self.seed).derive(id_hash);
        let stream = SplitMix64::new(base).derive(0x4075_0000 | spec.kind.stream_tag());
        let mut rng = Rng::seed_from_u64(stream);
        if rng.uniform() >= spec.probability {
            return 1;
        }
        1 + (7.0 * spec.intensity * rng.uniform()).floor() as u64
    }

    /// Realizes this plan's [`FaultKind::SilentCorruption`] spec for
    /// one replica lane of one job: the finite perturbation that lane's
    /// *observation* of the result carries, or `None` when the lane
    /// reports the true value.
    ///
    /// Two independent gates compose, both pure:
    ///
    /// * **offender gate** — a function of `(plan seed, lane)` only:
    ///   roughly half of all lane identities are offenders, and an
    ///   offender stays an offender for every job it observes, so a
    ///   suspect scoreboard accumulates strikes against the same
    ///   identity (the "defective core" model, not random cosmic rays);
    /// * **occurrence gate** — a function of
    ///   `(plan seed, sensor_id, job_seed, lane)` drawn against the
    ///   spec's probability, so corruption intensity ramps the per-job
    ///   firing rate on offender lanes.
    ///
    /// The returned delta is a relative factor with magnitude at least
    /// `10⁻⁴` (far outside any sane vote tolerance, so an injected
    /// corruption is *detectable* by construction) applied to one
    /// summary field chosen by the stream. Both streams use dedicated
    /// tag offsets, so they can never alias the per-job realization,
    /// shard-loss, hotspot, or aging streams. Without a
    /// `SilentCorruption` spec (or with zero probability) every lane
    /// observes the truth.
    #[must_use]
    pub fn silent_corruption(
        &self,
        sensor_id: &str,
        job_seed: u64,
        lane: u64,
    ) -> Option<CorruptionDelta> {
        let spec = self
            .specs
            .iter()
            .find(|s| s.kind == FaultKind::SilentCorruption)
            .copied()
            .filter(|s| s.probability > 0.0)?;
        // Offender gate: keyed to the lane identity alone.
        let offender_stream = SplitMix64::new(self.seed)
            .derive(0x0FFE_0000 | spec.kind.stream_tag())
            .wrapping_add(lane);
        let mut offender_rng = Rng::seed_from_u64(SplitMix64::new(offender_stream).derive(lane));
        if offender_rng.uniform() >= 0.5 {
            return None;
        }
        // Occurrence gate: this offender, this job.
        let id_hash = fnv1a(sensor_id.as_bytes());
        let base = SplitMix64::new(self.seed).derive(id_hash);
        let base = SplitMix64::new(base).derive(job_seed);
        let stream = SplitMix64::new(base).derive(0x51C7_0000 | spec.kind.stream_tag());
        let mut rng = Rng::seed_from_u64(SplitMix64::new(stream).derive(lane));
        if rng.uniform() >= spec.probability {
            return None;
        }
        // Severity draw mirrors `realize`: half to full intensity.
        let magnitude = spec.intensity * (0.5 + 0.5 * rng.uniform());
        let field = ((rng.uniform() * CorruptionDelta::FIELDS as f64).floor() as usize)
            .min(CorruptionDelta::FIELDS - 1);
        let sign = if rng.uniform() < 0.5 { -1.0 } else { 1.0 };
        Some(CorruptionDelta {
            field,
            relative: sign * (1e-4 + 0.05 * magnitude),
        })
    }

    /// Realizes this plan's [`FaultKind::FilmDenaturation`] spec along a
    /// **longitudinal time axis** for one patient channel: whether the
    /// film ages at all (the spec's probability), when the decay starts,
    /// and how fast it proceeds (scaled by the spec's intensity, with
    /// the same half-to-full severity draw as [`FaultPlan::realize`]).
    ///
    /// Where `realize` answers "how degraded is this sensor for this
    /// one job", `aging_profile` answers "how does this patient's film
    /// activity evolve tick by tick" — the drift-injection input of the
    /// stream engine. Pure function of `(plan seed, spec, patient_id,
    /// horizon_ticks)`: each patient draws from its own
    /// `SplitMix64`-derived stream, so cohort size and iteration order
    /// never perturb an individual profile. Without a `FilmDenaturation`
    /// spec (or with zero probability) the profile never ages.
    ///
    /// The onset is uniform over the first 40 % of the horizon so that
    /// detection *and* re-calibration both fit inside the run; at full
    /// magnitude the film loses 0.5 % activity per tick.
    #[must_use]
    pub fn aging_profile(&self, patient_id: &str, horizon_ticks: u64) -> AgingProfile {
        let spec = self
            .specs
            .iter()
            .find(|s| s.kind == FaultKind::FilmDenaturation)
            .copied()
            .filter(|s| s.probability > 0.0);
        let healthy = AgingProfile {
            onset_tick: None,
            decay_per_tick: 0.0,
        };
        let Some(spec) = spec else {
            return healthy;
        };
        let id_hash = fnv1a(patient_id.as_bytes());
        let base = SplitMix64::new(self.seed).derive(id_hash);
        // A dedicated stream tag: the longitudinal profile must not
        // alias the per-job realization stream of the same spec.
        let stream = SplitMix64::new(base).derive(0xA9E5_0000 | spec.kind.stream_tag());
        let mut rng = Rng::seed_from_u64(stream);
        if rng.uniform() >= spec.probability {
            return healthy;
        }
        let onset = (rng.uniform() * 0.4 * horizon_ticks.max(1) as f64).floor() as u64;
        // Severity draw between half and full intensity, mirroring
        // `realize` so an intensity ramp produces a decay-rate ramp.
        let magnitude = spec.intensity * (0.5 + 0.5 * rng.uniform());
        AgingProfile {
            onset_tick: Some(onset),
            decay_per_tick: 0.005 * magnitude,
        }
    }
}

/// The in-flight perturbation one replica lane's observation of a
/// result carries — the realization of a
/// [`FaultKind::SilentCorruption`] spec (see
/// [`FaultPlan::silent_corruption`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionDelta {
    /// Index of the perturbed summary field, in `[0, FIELDS)`.
    pub field: usize,
    /// Relative factor delta applied to that field: the lane observes
    /// `true_value * (1 + relative)`. Always finite and non-zero, with
    /// `|relative| ≥ 1e-4`.
    pub relative: f64,
}

impl CorruptionDelta {
    /// Number of comparable summary fields a corruption can land on
    /// (sensitivity, range low, range high, detection limit, R²).
    pub const FIELDS: usize = 5;
}

/// How one patient channel's enzyme-film activity evolves over a
/// longitudinal run — the time-axis realization of a
/// [`FaultKind::FilmDenaturation`] spec (see
/// [`FaultPlan::aging_profile`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingProfile {
    /// Tick the film starts losing activity; `None` never ages.
    pub onset_tick: Option<u64>,
    /// Fractional activity lost per tick once aging has started.
    pub decay_per_tick: f64,
}

impl AgingProfile {
    /// Films never decay below this retained-activity floor (matches
    /// the per-job realization clamp in [`FaultPlan::realize`]).
    pub const FLOOR: f64 = 0.05;

    /// Whether this profile ever injects drift.
    #[must_use]
    pub fn ages(&self) -> bool {
        self.onset_tick.is_some() && self.decay_per_tick > 0.0
    }

    /// Retained film activity at `tick`: 1.0 before onset, then a
    /// linear decay clamped at [`AgingProfile::FLOOR`].
    #[must_use]
    pub fn activity_at(&self, tick: u64) -> f64 {
        match self.onset_tick {
            Some(onset) if tick >= onset => {
                (1.0 - (tick - onset) as f64 * self.decay_per_tick).max(AgingProfile::FLOOR)
            }
            _ => 1.0,
        }
    }
}

/// Builder for [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    name: String,
    seed: u64,
    specs: Vec<FaultSpec>,
}

impl FaultPlanBuilder {
    /// Arm one fault kind with the given probability and intensity
    /// (both clamped into `[0, 1]`).
    pub fn spec(mut self, kind: FaultKind, probability: f64, intensity: f64) -> Self {
        self.specs
            .push(FaultSpec::new(kind, probability, intensity));
        self
    }

    /// Finish the plan.
    pub fn build(self) -> FaultPlan {
        FaultPlan {
            name: self.name,
            seed: self.seed,
            specs: self.specs,
        }
    }
}

/// The concrete faults realized for one `(plan, sensor, seed)` job.
///
/// Every field's default is the healthy value, so physics code can
/// apply a `RealizedFaults` unconditionally and a healthy realization
/// is an exact no-op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealizedFaults {
    /// Multiplier on enzyme film activity, `(0, 1]`; 1.0 = healthy.
    pub film_activity: f64,
    /// Fraction of electrode area blocked by fouling, `[0, 1)`.
    pub fouling_coverage: f64,
    /// Reference-electrode drift in volts (negative = toward the foot
    /// of the wave); 0.0 = healthy.
    pub reference_drift_volts: f64,
    /// Fraction of ADC full scale lost to early saturation, `[0, 1)`.
    pub adc_saturation: f64,
    /// ADC code bits stuck at zero (mask over the low-order bits).
    pub adc_stuck_mask: u16,
    /// Per-sample probability of a readout spike.
    pub spike_probability: f64,
    /// Spike amplitude as a fraction of TIA full-scale current.
    pub spike_magnitude: f64,
    /// Per-sample probability of a dropped sample (hold-last-value).
    pub dropout_probability: f64,
    /// Number of leading attempts that fail transiently before the job
    /// can succeed; 0 = healthy.
    pub transient_failures: u32,
    /// Whether the job panics outright (permanent failure).
    pub panic_job: bool,
    /// Whether the job busy-hangs and must be reclaimed by the
    /// runtime's watchdog (surfaces as a deadline loss).
    pub stall_job: bool,
    /// Seed for the instrument-layer fault stream (spike/dropout
    /// timing), independent of the measurement noise stream.
    pub noise_seed: u64,
}

impl RealizedFaults {
    /// The all-healthy realization: applying it changes nothing.
    pub fn healthy() -> Self {
        Self {
            film_activity: 1.0,
            fouling_coverage: 0.0,
            reference_drift_volts: 0.0,
            adc_saturation: 0.0,
            adc_stuck_mask: 0,
            spike_probability: 0.0,
            spike_magnitude: 0.0,
            dropout_probability: 0.0,
            transient_failures: 0,
            panic_job: false,
            stall_job: false,
            noise_seed: 0,
        }
    }

    /// True when every field is at its healthy value.
    pub fn is_healthy(&self) -> bool {
        self.tally().total() == 0
    }

    /// Count the injected fault kinds by layer.
    pub fn tally(&self) -> FaultTally {
        let mut tally = FaultTally::default();
        if self.film_activity < 1.0 {
            tally.enzyme += 1;
        }
        if self.fouling_coverage > 0.0 {
            tally.electrode += 1;
        }
        if self.reference_drift_volts != 0.0 {
            tally.electrode += 1;
        }
        if self.adc_saturation > 0.0 {
            tally.instrument += 1;
        }
        if self.adc_stuck_mask != 0 {
            tally.instrument += 1;
        }
        if self.spike_probability > 0.0 {
            tally.instrument += 1;
        }
        if self.dropout_probability > 0.0 {
            tally.instrument += 1;
        }
        if self.transient_failures > 0 {
            tally.runtime += 1;
        }
        if self.panic_job {
            tally.runtime += 1;
        }
        if self.stall_job {
            tally.runtime += 1;
        }
        tally
    }
}

impl Default for RealizedFaults {
    fn default() -> Self {
        Self::healthy()
    }
}

/// Injected-fault counts bucketed by simulator layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Faults landing in `bios-enzyme` (film denaturation).
    pub enzyme: u32,
    /// Faults landing in `bios-electrochem` (fouling, drift).
    pub electrode: u32,
    /// Faults landing in `bios-instrument` (ADC + readout transients).
    pub instrument: u32,
    /// Faults landing in `bios-runtime` (transients, panics).
    pub runtime: u32,
}

impl FaultTally {
    /// Total injected fault count across layers.
    pub fn total(&self) -> u32 {
        self.enzyme + self.electrode + self.instrument + self.runtime
    }

    /// Element-wise sum, for aggregating a fleet's tallies.
    pub fn merge(&self, other: &FaultTally) -> FaultTally {
        FaultTally {
            enzyme: self.enzyme + other.enzyme,
            electrode: self.electrode + other.electrode,
            instrument: self.instrument + other.instrument,
            runtime: self.runtime + other.runtime,
        }
    }
}

/// Hook implemented by physics-layer types that can absorb faults.
///
/// Implementations must be exact no-ops for healthy fields so that an
/// unarmed or zero-intensity plan leaves results bit-identical to the
/// healthy path.
pub trait Faultable: Sized {
    /// Return `self` with the realized faults applied.
    fn with_faults(self, faults: &RealizedFaults) -> Self;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_plan() -> FaultPlan {
        FaultPlan::builder("demo", 99)
            .spec(FaultKind::FilmDenaturation, 1.0, 0.8)
            .spec(FaultKind::ReadoutSpike, 1.0, 0.5)
            .spec(FaultKind::TransientGlitch, 1.0, 1.0)
            .build()
    }

    #[test]
    fn realization_is_deterministic() {
        let plan = demo_plan();
        let a = plan.realize("glucose/gox", 7);
        let b = plan.realize("glucose/gox", 7);
        assert_eq!(a, b);
    }

    #[test]
    fn realization_depends_on_sensor_and_seed() {
        let plan = demo_plan();
        let base = plan.realize("glucose/gox", 7);
        assert_ne!(base, plan.realize("lactate/lox", 7));
        assert_ne!(base, plan.realize("glucose/gox", 8));
    }

    #[test]
    fn zero_probability_realizes_healthy() {
        let plan = FaultPlan::builder("calm", 1)
            .spec(FaultKind::ElectrodeFouling, 0.0, 1.0)
            .build();
        for seed in 0..32 {
            let realized = plan.realize("any", seed);
            assert!(realized.is_healthy(), "seed {seed} realized a fault");
        }
    }

    #[test]
    fn chaos_at_zero_intensity_is_harmless() {
        let plan = FaultPlan::chaos(5, 0.0);
        for seed in 0..16 {
            assert!(plan.realize("glucose/gox", seed).is_healthy());
        }
    }

    #[test]
    fn chaos_at_full_intensity_injects() {
        let plan = FaultPlan::chaos(5, 1.0);
        let injected: u32 = (0..16)
            .map(|seed| plan.realize("glucose/gox", seed).tally().total())
            .sum();
        assert!(injected > 0, "full-intensity chaos injected nothing");
    }

    #[test]
    fn specs_draw_independent_streams() {
        // Removing one spec must not change what the others realize.
        let both = FaultPlan::builder("p", 3)
            .spec(FaultKind::FilmDenaturation, 1.0, 0.5)
            .spec(FaultKind::ElectrodeFouling, 1.0, 0.5)
            .build();
        let film_only = FaultPlan::builder("p", 3)
            .spec(FaultKind::FilmDenaturation, 1.0, 0.5)
            .build();
        assert_eq!(
            both.realize("s", 1).film_activity,
            film_only.realize("s", 1).film_activity
        );
    }

    #[test]
    fn aging_profile_is_deterministic_and_per_patient() {
        let plan = demo_plan();
        let a = plan.aging_profile("p000001", 288);
        assert_eq!(a, plan.aging_profile("p000001", 288));
        // Probability 1.0 ages every patient, with onset in the early
        // window and a decay bounded by the intensity.
        let profiles: Vec<AgingProfile> = (0..16)
            .map(|i| plan.aging_profile(&format!("p{i:06}"), 288))
            .collect();
        for p in &profiles {
            assert!(p.ages());
            let onset = p.onset_tick.unwrap_or(u64::MAX);
            assert!(onset < 116, "onset {onset} outside the first 40%");
            assert!(p.decay_per_tick > 0.0 && p.decay_per_tick <= 0.005 * 0.8);
        }
        assert!(
            profiles.iter().any(|p| *p != profiles[0]),
            "patients must draw independent profiles"
        );
    }

    #[test]
    fn aging_profile_without_denaturation_never_ages() {
        let plan = FaultPlan::builder("calm", 1)
            .spec(FaultKind::ElectrodeFouling, 1.0, 1.0)
            .build();
        let p = plan.aging_profile("p000001", 288);
        assert!(!p.ages());
        for t in [0, 100, 1000] {
            assert!((p.activity_at(t) - 1.0).abs() < f64::EPSILON);
        }
        let zero = FaultPlan::builder("zero", 1)
            .spec(FaultKind::FilmDenaturation, 0.0, 1.0)
            .build();
        assert!(!zero.aging_profile("p000001", 288).ages());
    }

    #[test]
    fn aging_activity_decays_linearly_to_the_floor() {
        let profile = AgingProfile {
            onset_tick: Some(10),
            decay_per_tick: 0.01,
        };
        assert!((profile.activity_at(0) - 1.0).abs() < f64::EPSILON);
        assert!((profile.activity_at(10) - 1.0).abs() < f64::EPSILON);
        assert!((profile.activity_at(60) - 0.5).abs() < 1e-12);
        assert!((profile.activity_at(10_000) - AgingProfile::FLOOR).abs() < f64::EPSILON);
    }

    #[test]
    fn fingerprints_separate_distinct_plans() {
        let a = demo_plan();
        let b = FaultPlan::builder("demo", 100)
            .spec(FaultKind::FilmDenaturation, 1.0, 0.8)
            .spec(FaultKind::ReadoutSpike, 1.0, 0.5)
            .spec(FaultKind::TransientGlitch, 1.0, 1.0)
            .build();
        assert_ne!(a.fingerprint(), b.fingerprint(), "seed must fingerprint");
        assert_eq!(a.fingerprint(), demo_plan().fingerprint());
    }

    #[test]
    fn fingerprint_is_pinned_and_every_field_moves_it() {
        // name "demo", seed 99, 3 specs: (0x01, 1.0, 0.8), (0x06, 1.0,
        // 0.5), (0x08, 1.0, 1.0), encoded as documented on `fingerprint`.
        let base = demo_plan();
        assert_eq!(base.fingerprint(), 0x090b_3790_0408_fdb9);
        // One spec of every kind pins every remaining tag at once.
        let every_kind = FaultKind::ALL
            .iter()
            .fold(FaultPlan::builder("every kind", 24), |b, &kind| {
                b.spec(kind, 0.5, 0.25)
            })
            .build();
        assert_eq!(every_kind.specs().len(), 13);
        assert_eq!(every_kind.fingerprint(), 0x92c8_31f2_97cc_9dce);
        let with_specs = |specs: &[FaultSpec]| FaultPlan {
            specs: specs.to_vec(),
            ..demo_plan()
        };
        let mut variants = vec![
            FaultPlan {
                name: "demo2".to_owned(),
                ..demo_plan()
            },
            FaultPlan {
                seed: 100,
                ..demo_plan()
            },
            with_specs(&base.specs()[..2]),
        ];
        for i in 0..base.specs().len() {
            let mut specs = base.specs().to_vec();
            specs[i].kind = FaultKind::WorkerStall;
            variants.push(with_specs(&specs));
            specs[i] = base.specs()[i];
            specs[i].probability = 0.5;
            variants.push(with_specs(&specs));
            specs[i] = base.specs()[i];
            specs[i].intensity = 0.25;
            variants.push(with_specs(&specs));
        }
        for variant in &variants {
            assert_ne!(
                variant.fingerprint(),
                base.fingerprint(),
                "{variant:?} must not share the demo plan's fingerprint"
            );
        }
    }

    #[test]
    fn tally_buckets_by_layer() {
        let mut realized = RealizedFaults::healthy();
        realized.film_activity = 0.5;
        realized.fouling_coverage = 0.2;
        realized.spike_probability = 0.1;
        realized.panic_job = true;
        let tally = realized.tally();
        assert_eq!(tally.enzyme, 1);
        assert_eq!(tally.electrode, 1);
        assert_eq!(tally.instrument, 1);
        assert_eq!(tally.runtime, 1);
        assert_eq!(tally.total(), 4);
        assert_eq!(tally.merge(&tally).total(), 8);
    }

    #[test]
    fn spec_clamps_out_of_range_inputs() {
        let spec = FaultSpec::new(FaultKind::ReadoutSpike, 2.0, -1.0);
        assert_eq!(spec.probability, 1.0);
        assert_eq!(spec.intensity, 0.0);
        let nan = FaultSpec::new(FaultKind::ReadoutSpike, f64::NAN, f64::INFINITY);
        assert_eq!(nan.probability, 0.0);
        assert_eq!(nan.intensity, 0.0);
    }

    #[test]
    fn healthy_realization_reports_no_faults() {
        assert!(RealizedFaults::healthy().is_healthy());
        assert_eq!(RealizedFaults::default(), RealizedFaults::healthy());
    }

    #[test]
    fn traffic_burst_never_touches_job_physics() {
        let plan = FaultPlan::builder("burst-only", 11)
            .spec(FaultKind::TrafficBurst, 1.0, 1.0)
            .build();
        for seed in 0..16 {
            assert!(plan.realize("glucose/gox", seed).is_healthy());
        }
    }

    #[test]
    fn tenant_hotspot_never_touches_job_physics() {
        let plan = FaultPlan::builder("hotspot-only", 13)
            .spec(FaultKind::TenantHotspot, 1.0, 1.0)
            .build();
        for seed in 0..16 {
            assert!(plan.realize("glucose/gox", seed).is_healthy());
        }
    }

    #[test]
    fn hotspot_factor_is_deterministic_and_bounded() {
        let plan = FaultPlan::builder("hot", 0x407)
            .spec(FaultKind::TenantHotspot, 1.0, 1.0)
            .build();
        let mut max_seen = 0;
        for i in 0..16 {
            let tenant = format!("ward-{i:02}");
            let f = plan.hotspot_factor(&tenant);
            assert_eq!(f, plan.hotspot_factor(&tenant));
            assert!((1..=8).contains(&f), "factor {f} outside [1, 8]");
            max_seen = max_seen.max(f);
        }
        assert!(max_seen > 1, "full-intensity hotspot never skewed");
        // Without a spec (or at zero probability) everyone stays cold.
        assert_eq!(demo_plan().hotspot_factor("ward-00"), 1);
        let zero = FaultPlan::builder("zero", 1)
            .spec(FaultKind::TenantHotspot, 0.0, 1.0)
            .build();
        assert_eq!(zero.hotspot_factor("ward-00"), 1);
    }

    #[test]
    fn silent_corruption_never_touches_job_physics() {
        let plan = FaultPlan::builder("sdc-only", 17)
            .spec(FaultKind::SilentCorruption, 1.0, 1.0)
            .build();
        for seed in 0..16 {
            assert!(plan.realize("glucose/gox", seed).is_healthy());
        }
    }

    #[test]
    fn silent_corruption_is_deterministic_finite_and_detectable() {
        let plan = FaultPlan::builder("sdc", 0x51C7)
            .spec(FaultKind::SilentCorruption, 1.0, 0.5)
            .build();
        let mut fired = 0;
        for lane in 0..8u64 {
            for seed in 0..8u64 {
                let a = plan.silent_corruption("glucose/gox", seed, lane);
                assert_eq!(a, plan.silent_corruption("glucose/gox", seed, lane));
                if let Some(d) = a {
                    fired += 1;
                    assert!(d.relative.is_finite());
                    assert!(
                        d.relative.abs() >= 1e-4,
                        "delta {} undetectable",
                        d.relative
                    );
                    assert!(d.field < CorruptionDelta::FIELDS);
                }
            }
        }
        assert!(fired > 0, "full-probability corruption never fired");
    }

    #[test]
    fn silent_corruption_offenders_are_repeatable_lane_identities() {
        // At probability 1.0 an offender lane fires on *every* job and
        // a non-offender lane on none: the offender set is a property
        // of the lane identity, not of the job.
        let plan = FaultPlan::builder("sdc", 0x0BAD_C0DE)
            .spec(FaultKind::SilentCorruption, 1.0, 1.0)
            .build();
        let mut offenders = Vec::new();
        for lane in 0..16u64 {
            let fires: Vec<bool> = (0..32u64)
                .map(|seed| plan.silent_corruption("lactate/lox", seed, lane).is_some())
                .collect();
            assert!(
                fires.iter().all(|&f| f == fires[0]),
                "lane {lane} flip-flopped between offender and honest"
            );
            if fires[0] {
                offenders.push(lane);
            }
        }
        assert!(!offenders.is_empty(), "no offender lane in 16 identities");
        assert!(offenders.len() < 16, "every lane offended");
    }

    #[test]
    fn silent_corruption_without_spec_never_fires() {
        let plan = demo_plan();
        for lane in 0..8u64 {
            assert_eq!(plan.silent_corruption("glucose/gox", 1, lane), None);
        }
        let zero = FaultPlan::builder("zero", 1)
            .spec(FaultKind::SilentCorruption, 0.0, 1.0)
            .build();
        assert_eq!(zero.silent_corruption("glucose/gox", 1, 0), None);
    }

    #[test]
    fn arrival_ticks_without_burst_spec_are_a_smooth_trickle() {
        let plan = demo_plan();
        assert_eq!(plan.arrival_ticks(5, 3), vec![0, 3, 6, 9, 12]);
        assert_eq!(
            FaultPlan::builder("empty", 0)
                .build()
                .arrival_ticks(0, 3)
                .len(),
            0
        );
    }

    #[test]
    fn arrival_ticks_are_deterministic_and_monotone() {
        let plan = FaultPlan::builder("bursty", 0xB00)
            .spec(FaultKind::TrafficBurst, 0.5, 0.8)
            .build();
        let a = plan.arrival_ticks(64, 2);
        let b = plan.arrival_ticks(64, 2);
        assert_eq!(a, b, "same plan must shape the same trace");
        assert_eq!(a[0], 0, "the first request arrives at tick 0");
        for w in a.windows(2) {
            assert!(w[1] >= w[0], "ticks must be non-decreasing");
        }
    }

    #[test]
    fn burst_spec_compresses_the_trace() {
        let calm = FaultPlan::builder("calm", 7).build().arrival_ticks(64, 2);
        let bursty = FaultPlan::builder("bursty", 7)
            .spec(FaultKind::TrafficBurst, 0.7, 1.0)
            .build()
            .arrival_ticks(64, 2);
        let calm_span = calm.last().copied().unwrap_or(0);
        let bursty_span = bursty.last().copied().unwrap_or(0);
        assert!(
            bursty_span < calm_span,
            "bursts must compress the span ({bursty_span} vs {calm_span})"
        );
        // At least one genuine burst: several requests on one tick.
        let max_same_tick = bursty
            .iter()
            .map(|t| bursty.iter().filter(|u| *u == t).count())
            .max()
            .unwrap_or(0);
        assert!(max_same_tick >= 3, "no burst realized");
    }
}
