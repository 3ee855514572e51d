//! One-dimensional finite-difference diffusion solver.
//!
//! Semi-infinite planar diffusion toward the electrode is the transport
//! regime of every sensor in the paper (planar SPE and microfabricated
//! electrodes, quiescent drop of sample). The grid discretizes
//!
//! `∂C/∂t = D·∂²C/∂x²  (+ source)`
//!
//! with the electrode at `x = 0` and bulk solution at the far edge.
//!
//! Two integrators are provided: an explicit FTCS step (simple, stability
//! limited to `D·Δt/Δx² ≤ 0.5`) and an unconditionally stable
//! Crank–Nicolson step solved by the Thomas tridiagonal algorithm.

use bios_units::{DiffusionCoefficient, Molar, Seconds};

use crate::checkpoint::{CheckPoint, POLL_INTERVAL};
use crate::error::ElectrochemError;

/// Boundary condition applied at the electrode surface (`x = 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SurfaceBoundary {
    /// Fixed surface concentration (mol/cm³) — e.g. 0 for a
    /// diffusion-limited oxidation (Cottrell conditions).
    Concentration(f64),
    /// Fixed outward flux (mol · cm⁻² · s⁻¹); positive flux consumes
    /// material at the surface. `Flux(0.0)` is a blocking (no-flux) wall.
    Flux(f64),
}

/// A 1-D diffusion field on a uniform grid.
///
/// Concentrations are stored in mol/cm³ internally (consistent with CGS
/// transport constants); construction takes [`Molar`].
///
/// # Examples
///
/// ```
/// use bios_electrochem::diffusion::{DiffusionGrid, SurfaceBoundary};
/// use bios_electrochem::checkpoint::NeverCancel;
/// use bios_units::{DiffusionCoefficient, Molar, Seconds};
///
/// let mut grid = DiffusionGrid::new(
///     DiffusionCoefficient::from_square_cm_per_second(1e-5),
///     Molar::from_milli_molar(1.0),
///     50e-4,  // 50 µm domain
///     100,    // nodes
/// )
/// .expect("valid grid");
/// grid.set_surface(SurfaceBoundary::Concentration(0.0));
/// grid.advance_checked(Seconds::from_millis(100.0), Seconds::from_millis(1.0), &NeverCancel)
///     .expect("healthy field stays finite");
/// // Material flows toward the consuming electrode:
/// assert!(grid.flux_mol_per_cm2_s() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct DiffusionGrid {
    /// Node concentrations, mol/cm³; index 0 is the electrode surface.
    c: Vec<f64>,
    /// Diffusion coefficient, cm²/s.
    d: f64,
    /// Node spacing, cm.
    dx: f64,
    /// Bulk concentration pinned at the far boundary, mol/cm³.
    bulk: f64,
    surface: SurfaceBoundary,
    /// Scratch buffers for the tridiagonal solver.
    scratch_c: Vec<f64>,
    scratch_d: Vec<f64>,
}

impl DiffusionGrid {
    /// Creates a grid of `nodes` points spanning `length_cm`, initially at
    /// uniform `bulk` concentration with a blocking electrode.
    ///
    /// # Errors
    ///
    /// Returns [`ElectrochemError::GridTooSmall`] if `nodes < 3` and
    /// [`ElectrochemError::InvalidLength`] if `length_cm` is not a
    /// positive finite number.
    pub fn new(
        d: DiffusionCoefficient,
        bulk: Molar,
        length_cm: f64,
        nodes: usize,
    ) -> Result<DiffusionGrid, ElectrochemError> {
        if nodes < 3 {
            return Err(ElectrochemError::GridTooSmall {
                requested: nodes,
                minimum: 3,
            });
        }
        if !(length_cm > 0.0 && length_cm.is_finite()) {
            return Err(ElectrochemError::InvalidLength { length_cm });
        }
        let bulk_cgs = bulk.as_molar() * 1e-3;
        Ok(DiffusionGrid {
            c: vec![bulk_cgs; nodes],
            d: d.as_square_cm_per_second(),
            dx: length_cm / (nodes - 1) as f64,
            bulk: bulk_cgs,
            surface: SurfaceBoundary::Flux(0.0),
            scratch_c: vec![0.0; nodes],
            scratch_d: vec![0.0; nodes],
        })
    }

    /// Sets the electrode-surface boundary condition.
    pub fn set_surface(&mut self, surface: SurfaceBoundary) {
        self.surface = surface;
    }

    /// Diffusive flux into the electrode, mol · cm⁻² · s⁻¹ (positive when
    /// material flows toward the surface). Uses a second-order one-sided
    /// difference.
    #[must_use]
    pub fn flux_mol_per_cm2_s(&self) -> f64 {
        match self.surface {
            SurfaceBoundary::Flux(f) => f,
            SurfaceBoundary::Concentration(_) => {
                // dC/dx at x=0 via 3-point forward difference.
                let grad = (-3.0 * self.c[0] + 4.0 * self.c[1] - self.c[2]) / (2.0 * self.dx);
                self.d * grad
            }
        }
    }

    /// The largest explicit time step that is stable, `Δx²/(2D)`.
    #[must_use]
    pub fn max_stable_dt(&self) -> Seconds {
        Seconds::from_seconds(0.5 * self.dx * self.dx / self.d)
    }

    /// FTCS update body; callers must have verified stability.
    fn step_explicit_unchecked(&mut self, dt: Seconds) {
        let r = self.d * dt.as_seconds() / (self.dx * self.dx);
        debug_assert!(r <= 0.5 + 1e-12, "unchecked explicit step with r = {r}");
        let n = self.c.len();
        let old = self.c.clone();
        for i in 1..n - 1 {
            self.c[i] = old[i] + r * (old[i + 1] - 2.0 * old[i] + old[i - 1]);
        }
        self.apply_boundaries(r, &old);
    }

    fn apply_boundaries(&mut self, r: f64, old: &[f64]) {
        let n = self.c.len();
        // Far edge: pinned to bulk (semi-infinite approximation).
        self.c[n - 1] = self.bulk;
        match self.surface {
            SurfaceBoundary::Concentration(cs) => {
                self.c[0] = cs;
            }
            SurfaceBoundary::Flux(f) => {
                // Ghost-node treatment: C[-1] = C[1] - 2·Δx·f/D (outward
                // flux f consumes material).
                let ghost = old[1] - 2.0 * self.dx * f / self.d;
                self.c[0] = old[0] + r * (old[1] - 2.0 * old[0] + ghost);
            }
        }
    }

    /// Advances one Crank–Nicolson step of length `dt` (unconditionally
    /// stable).
    pub fn step_crank_nicolson(&mut self, dt: Seconds) {
        let dt = dt.as_seconds();
        let r = self.d * dt / (self.dx * self.dx);
        let n = self.c.len();
        // Build RHS = (I + r/2·L)·c  and solve (I − r/2·L)·c_new = RHS
        // on interior nodes, with boundaries folded in.
        let half = 0.5 * r;

        // Determine boundary values for the new time level.
        let (c0_new_known, ghost_flux) = match self.surface {
            SurfaceBoundary::Concentration(cs) => (Some(cs), 0.0),
            SurfaceBoundary::Flux(f) => (None, f),
        };
        let c_last = self.bulk;

        // We solve for nodes 0..n-1 where node n-1 is Dirichlet bulk and
        // node 0 is either Dirichlet or a flux (ghost) node.
        // Tridiagonal system a_i·x_{i-1} + b_i·x_i + c_i·x_{i+1} = d_i.
        let m = n - 1; // unknowns are indices 0..m (exclusive of last node)
        let a = -half;
        let b_diag = 1.0 + r;
        let cc = -half;

        let rhs = &mut self.scratch_d;
        rhs.resize(m, 0.0);
        let cprime = &mut self.scratch_c;
        cprime.resize(m, 0.0);

        // Assemble RHS from the old field (explicit half).
        #[allow(clippy::needless_range_loop)] // i indexes three arrays with offsets
        for i in 0..m {
            let left = if i == 0 {
                match self.surface {
                    SurfaceBoundary::Concentration(cs) => cs,
                    SurfaceBoundary::Flux(f) => self.c[1] - 2.0 * self.dx * f / self.d,
                }
            } else {
                self.c[i - 1]
            };
            let right = if i == m - 1 { self.c[m] } else { self.c[i + 1] };
            rhs[i] = self.c[i] + half * (left - 2.0 * self.c[i] + right);
        }

        // Fold in new-time boundary contributions.
        // Far boundary (node m == n-1) is Dirichlet at bulk:
        rhs[m - 1] += half * c_last;

        match c0_new_known {
            Some(cs) => {
                // Node 0 is known: replace row 0 with identity.
                rhs[0] = cs;
            }
            None => {
                // Flux BC: ghost node x_{-1} = x_1 − 2Δx·f/D couples row 0
                // to x_1 twice.
                rhs[0] += half * (-2.0 * self.dx * ghost_flux / self.d);
            }
        }

        // Thomas sweep. Row 0 is special under each BC.
        let (b0, c0) = match c0_new_known {
            Some(_) => (1.0, 0.0),
            None => (b_diag, 2.0 * cc), // ghost folds the sub-diagonal in
        };
        cprime[0] = c0 / b0;
        rhs[0] /= b0;
        for i in 1..m {
            let ci = if i == m - 1 { 0.0 } else { cc };
            let denom = b_diag - a * cprime[i - 1];
            cprime[i] = ci / denom;
            rhs[i] = (rhs[i] - a * rhs[i - 1]) / denom;
        }
        // Back substitution.
        self.c[m] = c_last;
        self.c[m - 1] = rhs[m - 1];
        for i in (0..m - 1).rev() {
            self.c[i] = rhs[i] - cprime[i] * self.c[i + 1];
        }
    }

    /// Runs the simulation for `duration` using steps of `dt`, choosing
    /// the explicit integrator when stable and Crank–Nicolson otherwise,
    /// with cooperative cancellation and a numerical guardrail: every
    /// [`POLL_INTERVAL`] steps the solver polls `cp` and scans the field
    /// for NaN/±Inf.
    ///
    /// # Errors
    ///
    /// * [`ElectrochemError::Cancelled`] — `cp` tripped; the field holds
    ///   the state at the last completed step.
    /// * [`ElectrochemError::NonFinite`] — the solution diverged; the
    ///   field must not be trusted (or cached) by the caller.
    pub fn advance_checked(
        &mut self,
        duration: Seconds,
        dt: Seconds,
        cp: &dyn CheckPoint,
    ) -> Result<(), ElectrochemError> {
        let steps = (duration.as_seconds() / dt.as_seconds()).round() as usize;
        let explicit_ok = dt <= self.max_stable_dt();
        for step in 0..steps {
            if step % POLL_INTERVAL == 0 {
                if cp.cancelled() {
                    return Err(ElectrochemError::Cancelled);
                }
                if !self.is_finite() {
                    return Err(ElectrochemError::NonFinite { step });
                }
            }
            if explicit_ok {
                self.step_explicit_unchecked(dt);
            } else {
                self.step_crank_nicolson(dt);
            }
        }
        if !self.is_finite() {
            return Err(ElectrochemError::NonFinite { step: steps });
        }
        Ok(())
    }

    /// True when every node of the field is a finite number.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.c.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::NeverCancel;

    fn grid() -> DiffusionGrid {
        DiffusionGrid::new(
            DiffusionCoefficient::from_square_cm_per_second(1e-5),
            Molar::from_milli_molar(1.0),
            100e-4,
            101,
        )
        .expect("valid grid")
    }

    fn advance(g: &mut DiffusionGrid, duration_ms: f64, dt_ms: f64) {
        g.advance_checked(
            Seconds::from_millis(duration_ms),
            Seconds::from_millis(dt_ms),
            &NeverCancel,
        )
        .expect("healthy field stays finite");
    }

    /// Total moles per unit area in the domain (trapezoidal rule), the
    /// quantity a no-flux wall conserves.
    fn inventory_mol_per_cm2(g: &DiffusionGrid) -> f64 {
        let n = g.c.len();
        let interior: f64 = g.c[1..n - 1].iter().sum();
        (interior + 0.5 * (g.c[0] + g.c[n - 1])) * g.dx
    }

    #[test]
    fn blocking_wall_conserves_mass_explicit() {
        let mut g = grid();
        let before = inventory_mol_per_cm2(&g);
        let dt = g.max_stable_dt() * 0.9;
        for _ in 0..200 {
            g.step_explicit_unchecked(dt);
        }
        let after = inventory_mol_per_cm2(&g);
        assert!((after - before).abs() / before < 1e-9);
    }

    /// Mass is conserved by the explicit solver under a blocking wall
    /// for any stable step size.
    #[test]
    fn diffusion_conserves_mass() {
        bios_prng::cases(0x0105, 24, |rng| {
            let nodes = rng.index_in(11, 200);
            let bulk = rng.log_uniform_in(0.01, 10.0);
            let frac = rng.uniform_in(0.1, 0.95);
            let steps = rng.index_in(1, 150);
            let mut g = DiffusionGrid::new(
                DiffusionCoefficient::from_square_cm_per_second(1e-5),
                Molar::from_milli_molar(bulk),
                50e-4,
                nodes,
            )
            .expect("valid grid");
            let before = inventory_mol_per_cm2(&g);
            let dt = g.max_stable_dt() * frac;
            for _ in 0..steps {
                g.step_explicit_unchecked(dt);
            }
            let after = inventory_mol_per_cm2(&g);
            assert!((after - before).abs() / before < 1e-9);
        });
    }

    /// Concentrations never go negative or exceed bulk under a
    /// consuming surface.
    #[test]
    fn diffusion_respects_physical_bounds() {
        bios_prng::cases(0x0106, 24, |rng| {
            let steps = rng.index_in(1, 300);
            let frac = rng.uniform_in(0.1, 0.95);
            let bulk = 1.0;
            let mut g = DiffusionGrid::new(
                DiffusionCoefficient::from_square_cm_per_second(1e-5),
                Molar::from_milli_molar(bulk),
                50e-4,
                101,
            )
            .expect("valid grid");
            g.set_surface(SurfaceBoundary::Concentration(0.0));
            let dt = g.max_stable_dt() * frac;
            for _ in 0..steps {
                g.step_explicit_unchecked(dt);
            }
            for (i, &c) in g.c.iter().enumerate() {
                let c = c * 1e6;
                assert!(c >= -1e-12, "node {i} negative: {c}");
                assert!(c <= bulk + 1e-9, "node {i} exceeds bulk: {c}");
            }
        });
    }

    /// Crank–Nicolson agrees with the explicit integrator at matched
    /// (stable) steps, for random durations.
    #[test]
    fn integrators_agree() {
        bios_prng::cases(0x0107, 16, |rng| {
            let steps = rng.index_in(10, 200);
            let make = || {
                let mut g = DiffusionGrid::new(
                    DiffusionCoefficient::from_square_cm_per_second(1e-5),
                    Molar::from_milli_molar(1.0),
                    50e-4,
                    101,
                )
                .expect("valid grid");
                g.set_surface(SurfaceBoundary::Concentration(0.0));
                g
            };
            let mut ge = make();
            let mut gc = make();
            let dt = ge.max_stable_dt() * 0.5;
            for _ in 0..steps {
                ge.step_explicit_unchecked(dt);
                gc.step_crank_nicolson(dt);
            }
            for i in 0..ge.c.len() {
                let a = ge.c[i] * 1e6;
                let b = gc.c[i] * 1e6;
                assert!((a - b).abs() < 1e-2, "node {i}: {a} vs {b}");
            }
        });
    }

    #[test]
    fn uniform_field_is_steady_state() {
        let mut g = grid();
        advance(&mut g, 50.0, 0.1);
        for &c in &g.c {
            assert!((c * 1e6 - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn consuming_surface_depletes_near_field() {
        let mut g = grid();
        g.set_surface(SurfaceBoundary::Concentration(0.0));
        advance(&mut g, 100.0, 0.2);
        // Monotone profile from 0 at the electrode to bulk far away.
        assert!(g.c[0] * 1e6 < 1e-9);
        for w in g.c.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((g.c[g.c.len() - 1] * 1e6 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flux_matches_cottrell_prediction() {
        // Fine grid, long domain so the depletion layer stays inside.
        let d = DiffusionCoefficient::from_square_cm_per_second(1e-5);
        let bulk = Molar::from_milli_molar(1.0);
        let mut g = DiffusionGrid::new(d, bulk, 400e-4, 801).expect("valid grid");
        g.set_surface(SurfaceBoundary::Concentration(0.0));
        let dt = Seconds::from_millis(1.0);
        let t_total = 1.0; // s
        let steps = (t_total / dt.as_seconds()) as usize;
        for _ in 0..steps {
            g.step_crank_nicolson(dt);
        }
        let flux = g.flux_mol_per_cm2_s();
        // Analytic Cottrell flux at t = 1 s: C·√(D/(π·t)).
        let c_cgs = 1e-6; // 1 mM in mol/cm³
        let analytic = c_cgs * (1e-5 / (std::f64::consts::PI * t_total)).sqrt();
        assert!(
            (flux - analytic).abs() / analytic < 0.03,
            "flux {flux} vs analytic {analytic}"
        );
    }

    #[test]
    fn crank_nicolson_matches_explicit() {
        let mut ge = grid();
        let mut gc = grid();
        ge.set_surface(SurfaceBoundary::Concentration(0.0));
        gc.set_surface(SurfaceBoundary::Concentration(0.0));
        let dt = ge.max_stable_dt() * 0.5;
        for _ in 0..500 {
            ge.step_explicit_unchecked(dt);
            gc.step_crank_nicolson(dt);
        }
        for i in 0..ge.c.len() {
            let a = ge.c[i] * 1e6;
            let b = gc.c[i] * 1e6;
            assert!((a - b).abs() < 5e-3, "node {i}: {a} vs {b}");
        }
    }

    #[test]
    fn constant_outward_flux_drains_inventory() {
        let mut g = grid();
        let f = 1e-10; // mol/cm²/s outward
        g.set_surface(SurfaceBoundary::Flux(f));
        let before = inventory_mol_per_cm2(&g);
        let dt = g.max_stable_dt() * 0.9;
        let mut elapsed = 0.0;
        for _ in 0..400 {
            g.step_explicit_unchecked(dt);
            elapsed += dt.as_seconds();
        }
        let after = inventory_mol_per_cm2(&g);
        // Bulk boundary replenishes, so drained mass is bounded by f·t but
        // the near-surface deficit must exist.
        assert!(after < before);
        assert!(before - after <= f * elapsed * 1.5);
        assert!(g.c[0] < g.c[g.c.len() - 1]);
    }

    #[test]
    fn tiny_grid_rejected() {
        let result = DiffusionGrid::new(
            DiffusionCoefficient::from_square_cm_per_second(1e-5),
            Molar::from_milli_molar(1.0),
            1e-3,
            2,
        );
        assert!(matches!(
            result,
            Err(ElectrochemError::GridTooSmall {
                requested: 2,
                minimum: 3
            })
        ));
    }

    #[test]
    fn advance_checked_matches_unchecked_steps() {
        let mut a = grid();
        let mut b = grid();
        a.set_surface(SurfaceBoundary::Concentration(0.0));
        b.set_surface(SurfaceBoundary::Concentration(0.0));
        let dt = Seconds::from_millis(0.2);
        assert!(dt <= a.max_stable_dt());
        for _ in 0..250 {
            a.step_explicit_unchecked(dt);
        }
        advance(&mut b, 50.0, 0.2);
        assert_eq!(a.c, b.c, "checked path must be bit-identical");
    }

    #[test]
    fn pre_tripped_token_cancels_immediately() {
        use std::sync::atomic::AtomicBool;
        let mut g = grid();
        let token = AtomicBool::new(true);
        let before = g.c.clone();
        let result = g.advance_checked(
            Seconds::from_seconds(10.0),
            Seconds::from_millis(1.0),
            &token,
        );
        assert!(matches!(result, Err(ElectrochemError::Cancelled)));
        // Cancellation at step 0 must not have advanced the field.
        assert_eq!(g.c, before);
    }

    #[test]
    fn nonfinite_field_is_caught_not_propagated() {
        // Regression for the NaN/Inf guardrail: an infinite outward flux
        // poisons the surface node on the first step; the checked
        // advance must detect it instead of marching NaNs for the full
        // duration.
        let mut g = grid();
        g.set_surface(SurfaceBoundary::Flux(f64::INFINITY));
        let result = g.advance_checked(
            Seconds::from_seconds(1.0),
            g.max_stable_dt() * 0.9,
            &NeverCancel,
        );
        match result {
            Err(ElectrochemError::NonFinite { step }) => {
                // Caught within one poll interval of the poisoning.
                assert!(step <= crate::checkpoint::POLL_INTERVAL + 1, "step {step}");
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        assert!(!g.is_finite());
    }

    #[test]
    fn bad_domain_length_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let result = DiffusionGrid::new(
                DiffusionCoefficient::from_square_cm_per_second(1e-5),
                Molar::from_milli_molar(1.0),
                bad,
                11,
            );
            assert!(
                matches!(result, Err(ElectrochemError::InvalidLength { .. })),
                "length {bad} accepted"
            );
        }
    }
}
