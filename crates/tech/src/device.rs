//! Analytic MOSFET large-signal model.
//!
//! The paper evaluated its crossbar schemes in SPICE with BPTM 45 nm
//! device cards. We replace that with a *smooth, symmetric,
//! EKV-interpolation* compact model: a single continuous equation covers
//! weak inversion (subthreshold leakage), moderate inversion and strong
//! inversion (drive current), which is exactly the property a
//! Newton–Raphson circuit solver needs, and which carries the two
//! first-order behaviours the paper's conclusions rest on:
//!
//! 1. raising Vth by ΔV reduces subthreshold leakage by
//!    `exp(ΔV / (n·vT))` (decades per ~100 mV) while reducing drive
//!    current only polynomially, and
//! 2. gate (direct-tunnelling) leakage depends exponentially on the
//!    voltage across the oxide, so discharging a floating internal node
//!    (the DFC sleep transistor pulling node A to GND) suppresses the
//!    gate leakage of the off pass transistors.
//!
//! The channel current uses the EKV interpolation
//!
//! ```text
//! I_ds = I_S · [ F((v_p − v_s)/v_T) − F((v_p − v_d)/v_T) ]
//! F(u)  = ln²(1 + e^(u/2)),     v_p = (v_g − V_th,eff) / n
//! ```
//!
//! with all node voltages bulk-referenced, which makes the model
//! source/drain symmetric — essential for the *pass transistors* in the
//! crossbar matrix, which conduct in both directions.

use crate::constants::{thermal_voltage, ROOM_TEMPERATURE_K};
use crate::units::{Amps, Farads, Volts};
use serde::{Deserialize, Serialize};

/// Transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Polarity {
    /// N-channel device (bulk tied to ground rail by convention).
    Nmos,
    /// P-channel device (bulk tied to the supply rail by convention).
    Pmos,
}

impl Polarity {
    /// Sign convention multiplier: `+1` for NMOS, `-1` for PMOS.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            Polarity::Nmos => 1.0,
            Polarity::Pmos => -1.0,
        }
    }
}

/// Threshold-voltage class in a dual-Vt process.
///
/// The paper's whole premise is the selective use of [`VtClass::High`]
/// devices off the critical path; [`VtClass::Nominal`] devices provide
/// the drive where timing is tight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VtClass {
    /// Nominal (low) threshold: fast, leaky.
    Nominal,
    /// High threshold: slower, 1–2 decades less subthreshold leakage.
    High,
}

impl VtClass {
    /// All classes, in increasing-Vth order.
    pub const ALL: [VtClass; 2] = [VtClass::Nominal, VtClass::High];
}

/// Raw parameter card for one (polarity × Vt class) device flavour.
///
/// All values are in SI base units. Instances are normally obtained from
/// [`crate::node45::Node45`] rather than constructed by hand.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MosParams {
    /// Device polarity.
    pub polarity: Polarity,
    /// Threshold class.
    pub vt_class: VtClass,
    /// Zero-bias threshold voltage magnitude (V), always positive.
    pub vth0: f64,
    /// Subthreshold slope factor `n` (dimensionless, 1.2–1.6 typical).
    pub n_slope: f64,
    /// DIBL coefficient (V of Vth shift per V of |Vds|).
    pub dibl: f64,
    /// First-order body-effect coefficient (V of Vth shift per V of
    /// reverse source-bulk bias).
    pub body_k: f64,
    /// Process transconductance µ·Cox (A/V²) at the reference temperature.
    pub k_prime: f64,
    /// Mobility-degradation coefficient θ (1/V).
    pub theta: f64,
    /// Drawn channel length (m).
    pub length: f64,
    /// Gate-oxide capacitance per area (F/m²).
    pub cox_per_area: f64,
    /// Gate-to-source/drain overlap capacitance per width (F/m).
    pub c_overlap_per_w: f64,
    /// Junction (diffusion) capacitance per width (F/m), lumping area and
    /// sidewall terms for a minimum-length diffusion.
    pub c_junction_per_w: f64,
    /// Gate direct-tunnelling current density (A/m²) at oxide voltage
    /// equal to `jg_vref`.
    pub jg0: f64,
    /// Exponential slope of gate tunnelling vs oxide voltage (1/V).
    pub jg_slope: f64,
    /// Reference oxide voltage for `jg0` (V), normally Vdd.
    pub jg_vref: f64,
    /// Reverse-bias junction leakage per width (A/m).
    pub junction_leak_per_w: f64,
    /// Vth temperature coefficient (V/K, positive = Vth drops as T rises).
    pub vth_tc: f64,
    /// Reference temperature for `k_prime` and `vth0` (K).
    pub t_ref: f64,
}

impl MosParams {
    /// Validates physical sanity of the card.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TechError::InvalidParameter`] if any parameter is
    /// outside its meaningful range.
    pub fn validate(&self) -> Result<(), crate::TechError> {
        use crate::TechError::InvalidParameter;
        let positive: [(&'static str, f64); 6] = [
            ("vth0", self.vth0),
            ("n_slope", self.n_slope),
            ("k_prime", self.k_prime),
            ("length", self.length),
            ("cox_per_area", self.cox_per_area),
            ("t_ref", self.t_ref),
        ];
        for (name, value) in positive {
            if value <= 0.0 || !value.is_finite() {
                return Err(InvalidParameter {
                    name,
                    value,
                    constraint: "must be positive and finite",
                });
            }
        }
        if self.n_slope < 1.0 {
            return Err(InvalidParameter {
                name: "n_slope",
                value: self.n_slope,
                constraint: "subthreshold slope factor must be ≥ 1",
            });
        }
        if self.dibl < 0.0 || self.dibl > 0.5 {
            return Err(InvalidParameter {
                name: "dibl",
                value: self.dibl,
                constraint: "must be in [0, 0.5]",
            });
        }
        Ok(())
    }
}

/// Numerically safe softplus: `ln(1 + e^x)`.
#[inline]
fn softplus(x: f64) -> f64 {
    if x > 35.0 {
        x
    } else if x < -35.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Numerically safe logistic sigmoid `σ(x) = 1 / (1 + e^(−x))` — the
/// derivative of [`softplus`].
#[inline]
fn sigmoid(x: f64) -> f64 {
    if x > 35.0 {
        1.0
    } else if x < -35.0 {
        x.exp()
    } else {
        1.0 / (1.0 + (-x).exp())
    }
}

/// `(F(u), dF/du)` of the EKV interpolation in one pass:
/// `F(u) = softplus(u/2)²`, so `F'(u) = softplus(u/2) · σ(u/2)`.
#[inline]
fn ekv_f_grad(u: f64) -> (f64, f64) {
    let s = softplus(0.5 * u);
    (s * s, s * sigmoid(0.5 * u))
}

/// The EKV interpolation function `F(u) = ln²(1 + e^(u/2))`.
///
/// `F(u) → e^u` for `u ≪ 0` (weak inversion) and `F(u) → u²/4` for
/// `u ≫ 0` (strong inversion).
#[inline]
fn ekv_f(u: f64) -> f64 {
    let l = softplus(0.5 * u);
    l * l
}

/// A MOSFET model instance: a parameter card evaluated at a temperature.
///
/// Cheap to construct and `Copy`-free by design (holds the card by value);
/// clone freely.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MosModel {
    params: MosParams,
    temperature: f64,
    /// Cached thermal voltage at `temperature`.
    v_t: f64,
    /// Temperature-adjusted threshold magnitude.
    vth_t: f64,
    /// Temperature-adjusted transconductance.
    k_t: f64,
    /// Gate-tunnelling zero-bias offset `exp(−jg_slope·jg_vref)`, a
    /// constant of the card hoisted out of every device evaluation.
    jg_zero_bias: f64,
}

/// Small-signal + large-signal operating point of one device, as consumed
/// by the circuit solver's Newton stamps.
///
/// Sign convention: `i_d` is the current flowing **into the drain
/// terminal**; `i_g_s`/`i_g_d` flow **from the gate** to source/drain.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosOp {
    /// Channel current into the drain (A). Negative for a conducting PMOS.
    pub i_d: f64,
    /// ∂i_d/∂v_g (transconductance, S).
    pub gm: f64,
    /// ∂i_d/∂v_d (output conductance, S).
    pub gds: f64,
    /// ∂i_d/∂v_s (S). Differentiated independently (not inferred from the
    /// other conductances), so the stamp is exact for the model.
    pub gms: f64,
    /// ∂i_d/∂v_b (body transconductance, S).
    pub gmb: f64,
    /// Gate-to-source tunnelling current (A), positive from gate to source.
    pub i_g_s: f64,
    /// Gate-to-drain tunnelling current (A), positive from gate to drain.
    pub i_g_d: f64,
    /// ∂i_g_s/∂(v_g − v_s) (S).
    pub g_gs: f64,
    /// ∂i_g_d/∂(v_g − v_d) (S).
    pub g_gd: f64,
}

/// Leakage breakdown of a single device in a static state.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LeakageBreakdown {
    /// Magnitude of the channel (subthreshold, or on-state) current (A).
    pub channel: Amps,
    /// Total gate tunnelling magnitude (A).
    pub gate: Amps,
    /// Junction reverse-bias leakage magnitude (A).
    pub junction: Amps,
}

impl LeakageBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> Amps {
        Amps(self.channel.0 + self.gate.0 + self.junction.0)
    }
}

/// Linearized terminal capacitances for one device, used by the transient
/// engine as constant (bias-independent) companions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosCaps {
    /// Gate–source capacitance (F).
    pub cgs: Farads,
    /// Gate–drain capacitance (F).
    pub cgd: Farads,
    /// Drain–bulk junction capacitance (F).
    pub cdb: Farads,
    /// Source–bulk junction capacitance (F).
    pub csb: Farads,
}

impl MosCaps {
    /// Total capacitance seen at the gate terminal.
    pub fn gate_total(&self) -> Farads {
        Farads(self.cgs.0 + self.cgd.0)
    }
}

impl MosModel {
    /// Builds a model from a parameter card at the given temperature (K).
    ///
    /// # Errors
    ///
    /// Propagates card validation failures.
    pub fn new(params: MosParams, temperature_k: f64) -> Result<Self, crate::TechError> {
        params.validate()?;
        if temperature_k <= 0.0 || !temperature_k.is_finite() {
            return Err(crate::TechError::InvalidParameter {
                name: "temperature_k",
                value: temperature_k,
                constraint: "must be positive and finite",
            });
        }
        let v_t = thermal_voltage(temperature_k);
        let vth_t = params.vth0 - params.vth_tc * (temperature_k - params.t_ref);
        let k_t = params.k_prime * (params.t_ref / temperature_k).powf(1.5);
        let jg_zero_bias = (-params.jg_slope * params.jg_vref).exp();
        Ok(Self {
            params,
            temperature: temperature_k,
            v_t,
            vth_t,
            k_t,
            jg_zero_bias,
        })
    }

    /// Builds the model at room temperature (300.15 K).
    ///
    /// # Errors
    ///
    /// Propagates card validation failures.
    pub fn at_room_temperature(params: MosParams) -> Result<Self, crate::TechError> {
        Self::new(params, ROOM_TEMPERATURE_K)
    }

    /// The parameter card.
    pub fn params(&self) -> &MosParams {
        &self.params
    }

    /// Evaluation temperature in kelvin.
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// Device polarity.
    pub fn polarity(&self) -> Polarity {
        self.params.polarity
    }

    /// Threshold class.
    pub fn vt_class(&self) -> VtClass {
        self.params.vt_class
    }

    /// Temperature-adjusted threshold magnitude (V).
    pub fn vth(&self) -> Volts {
        Volts(self.vth_t)
    }

    /// Channel current for an NMOS-equivalent device with bulk-referenced
    /// terminal voltages (internal kernel; polarity already folded in).
    fn ids_kernel(&self, w: f64, vgb: f64, vdb: f64, vsb: f64) -> f64 {
        let p = &self.params;
        // Symmetric DIBL: threshold drops with the drain-source spread.
        // Body effect (linearized): reverse bias on the effective source
        // (the lower of the two diffusion potentials) raises Vth.
        let v_sb_eff = vsb.min(vdb).max(0.0);
        let vth_eff = self.vth_t - p.dibl * (vdb - vsb).abs() + p.body_k * v_sb_eff;
        let v_p = (vgb - vth_eff) / p.n_slope;
        // Mobility degradation with effective vertical field.
        let v_ov = (vgb - vth_eff - vsb.min(vdb)).max(0.0);
        let k_eff = self.k_t / (1.0 + p.theta * v_ov);
        let i_s = 2.0 * p.n_slope * k_eff * (w / p.length) * self.v_t * self.v_t;
        let i_f = ekv_f((v_p - vsb) / self.v_t);
        let i_r = ekv_f((v_p - vdb) / self.v_t);
        i_s * (i_f - i_r)
    }

    /// Channel current into the drain, with **absolute** terminal
    /// voltages (any reference). `w` is the channel width in metres.
    ///
    /// For a PMOS the usual sign convention applies: a conducting PMOS
    /// has negative `i_d` (current flows out of the drain node).
    pub fn ids_terminals(&self, w: f64, vg: f64, vd: f64, vs: f64, vb: f64) -> f64 {
        match self.params.polarity {
            Polarity::Nmos => self.ids_kernel(w, vg - vb, vd - vb, vs - vb),
            Polarity::Pmos => -self.ids_kernel(w, vb - vg, vb - vd, vb - vs),
        }
    }

    /// [`Self::ids_kernel`] plus its analytic gradient
    /// `(∂i/∂vgb, ∂i/∂vdb, ∂i/∂vsb)` in one pass — the Newton hot path
    /// (one evaluation instead of nine finite-difference kernel calls).
    /// The model's `min`/`max`/`|·|` kinks use one-sided sub-gradients,
    /// which is what the finite differences smeared over anyway.
    fn ids_kernel_grad(&self, w: f64, vgb: f64, vdb: f64, vsb: f64) -> (f64, [f64; 3]) {
        let p = &self.params;
        let d = vdb - vsb;
        let s_d = if d > 0.0 {
            1.0
        } else if d < 0.0 {
            -1.0
        } else {
            0.0
        };
        // m = min(vsb, vdb); its gradient picks the vsb branch on ties,
        // matching `f64::min` which returns the first argument on equality.
        let (m, dm_dvsb, dm_dvdb) = if vsb <= vdb {
            (vsb, 1.0, 0.0)
        } else {
            (vdb, 0.0, 1.0)
        };
        let eff_on = m > 0.0;
        let v_sb_eff = if eff_on { m } else { 0.0 };
        let vth_eff = self.vth_t - p.dibl * d.abs() + p.body_k * v_sb_eff;
        // ∂vth_eff/∂{vdb, vsb}; vgb never enters vth_eff.
        let body_d = if eff_on { p.body_k * dm_dvdb } else { 0.0 };
        let body_s = if eff_on { p.body_k * dm_dvsb } else { 0.0 };
        let dvth_dvdb = -p.dibl * s_d + body_d;
        let dvth_dvsb = p.dibl * s_d + body_s;

        let n = p.n_slope;
        let vp = (vgb - vth_eff) / n;
        let dvp = [1.0 / n, -dvth_dvdb / n, -dvth_dvsb / n]; // ∂vp/∂{vgb,vdb,vsb}

        let v_ov_raw = vgb - vth_eff - m;
        let v_ov = v_ov_raw.max(0.0);
        let dov = if v_ov_raw > 0.0 {
            [1.0, -dvth_dvdb - dm_dvdb, -dvth_dvsb - dm_dvsb]
        } else {
            [0.0, 0.0, 0.0]
        };
        let denom = 1.0 + p.theta * v_ov;
        let k_eff = self.k_t / denom;
        // ∂k_eff/∂x = −k_eff·θ/denom · ∂v_ov/∂x; i_s scales linearly.
        let i_s = 2.0 * n * k_eff * (w / p.length) * self.v_t * self.v_t;
        let dis_scale = -p.theta / denom; // ∂i_s/∂x = i_s · dis_scale · ∂v_ov/∂x

        let (f_f, df_f) = ekv_f_grad((vp - vsb) / self.v_t);
        let (f_r, df_r) = ekv_f_grad((vp - vdb) / self.v_t);
        let i = i_s * (f_f - f_r);

        let mut grad = [0.0; 3];
        // x order: vgb, vdb, vsb; δ-terms from the uf/ur arguments.
        let delta_u = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]; // [δ(x=vsb), δ(x=vdb)]
        for x in 0..3 {
            let duf = (dvp[x] - delta_u[x][0]) / self.v_t;
            let dur = (dvp[x] - delta_u[x][1]) / self.v_t;
            grad[x] = i * dis_scale * dov[x] + i_s * (df_f * duf - df_r * dur);
        }
        (i, grad)
    }

    /// Convenience wrapper: source-referenced voltages, bulk tied to
    /// source. Returns the drain current.
    ///
    /// For PMOS pass the *physical* (negative when on) `vgs`/`vds`.
    pub fn ids(&self, w: f64, vgs: Volts, vds: Volts, vsb: Volts) -> Amps {
        let vs = 0.0;
        let vb = vs - vsb.0 * self.params.polarity.sign();
        Amps(self.ids_terminals(w, vgs.0 + vs, vds.0 + vs, vs, vb))
    }

    /// Gate tunnelling current from gate toward a source/drain terminal,
    /// given the gate-to-terminal voltage. Positive = out of the gate.
    ///
    /// The density model is
    /// `J = jg0 · [exp(jg_slope·(|v| − jg_vref)) − exp(−jg_slope·jg_vref)]`,
    /// signed by the polarity of the oxide field and split half/half
    /// between source and drain sides by the caller. The subtracted
    /// offset makes the current vanish exactly at zero oxide bias while
    /// leaving the full-bias value ≈ `jg0` per unit area.
    fn gate_tunnel(&self, w: f64, v_g_x: f64) -> f64 {
        self.gate_tunnel_grad(w, v_g_x).0
    }

    /// Gate tunnelling current and its analytic conductance
    /// `∂i/∂(v_g − v_x)` in one pass.
    ///
    /// The density model is
    /// `J = jg0 · [exp(jg_slope·(|v| − jg_vref)) − exp(−jg_slope·jg_vref)]`,
    /// signed by the oxide-field polarity. The current is an even-slope
    /// odd function, so its derivative is even in `v` and strictly
    /// positive below the clamp, zero above it.
    fn gate_tunnel_grad(&self, w: f64, v_g_x: f64) -> (f64, f64) {
        let p = &self.params;
        let area = 0.5 * w * p.length; // half the channel per terminal
        let zero_bias = self.jg_zero_bias;
        // Clamp the oxide bias at 2× the reference: keeps intermediate
        // Newton iterates (which can overshoot the rails) from blowing
        // the exponential out of float range while leaving the
        // physical 0..Vdd range untouched.
        let clamp = 2.0 * p.jg_vref;
        let clamped = v_g_x.abs() >= clamp;
        let v_eff = v_g_x.abs().min(clamp);
        let grown = (p.jg_slope * (v_eff - p.jg_vref)).exp();
        let magnitude = p.jg0 * (grown - zero_bias);
        let i = v_g_x.signum() * area * magnitude;
        let g = if clamped {
            0.0
        } else {
            area * p.jg0 * p.jg_slope * grown
        };
        (i, g)
    }

    /// Junction reverse-bias leakage into the bulk for one diffusion.
    fn junction_leak(&self, w: f64, v_xb: f64) -> f64 {
        // Reverse-biased for NMOS when v_xb > 0. Saturation-style model.
        let p = &self.params;
        let sign = self.params.polarity.sign();
        let v_rev = v_xb * sign;
        if v_rev <= 0.0 {
            0.0
        } else {
            p.junction_leak_per_w * w * (1.0 - (-v_rev / self.v_t).exp())
        }
    }

    /// Full operating-point evaluation with absolute terminal voltages.
    ///
    /// Current and all derivatives come from one analytic kernel pass —
    /// this is the single hottest function of the circuit engine (called
    /// per device per Newton iteration). [`Self::eval_fd`] keeps the
    /// original finite-difference evaluation as a cross-check oracle.
    pub fn eval(&self, w: f64, vg: f64, vd: f64, vs: f64, vb: f64) -> MosOp {
        // The kernel is bulk-referenced, so terminal derivatives map to
        // kernel gradients directly and ∂/∂vb = −Σ others exactly.
        let (i_d, gm, gds, gms) = match self.params.polarity {
            Polarity::Nmos => {
                let (i, g) = self.ids_kernel_grad(w, vg - vb, vd - vb, vs - vb);
                (i, g[0], g[1], g[2])
            }
            Polarity::Pmos => {
                // i = −K(vb−vg, vb−vd, vb−vs): the two sign flips cancel.
                let (i, g) = self.ids_kernel_grad(w, vb - vg, vb - vd, vb - vs);
                (-i, g[0], g[1], g[2])
            }
        };
        let gmb = -(gm + gds + gms);

        let (i_g_s, g_gs) = self.gate_tunnel_grad(w, vg - vs);
        let (i_g_d, g_gd) = self.gate_tunnel_grad(w, vg - vd);

        MosOp {
            i_d,
            gm,
            gds,
            gms,
            gmb,
            i_g_s,
            i_g_d,
            g_gs,
            g_gd,
        }
    }

    /// The original central-finite-difference evaluation, kept as the
    /// oracle the analytic [`Self::eval`] is verified against in tests.
    pub fn eval_fd(&self, w: f64, vg: f64, vd: f64, vs: f64, vb: f64) -> MosOp {
        const H: f64 = 1.0e-6;
        let i_d = self.ids_terminals(w, vg, vd, vs, vb);
        let gm = (self.ids_terminals(w, vg + H, vd, vs, vb)
            - self.ids_terminals(w, vg - H, vd, vs, vb))
            / (2.0 * H);
        let gds = (self.ids_terminals(w, vg, vd + H, vs, vb)
            - self.ids_terminals(w, vg, vd - H, vs, vb))
            / (2.0 * H);
        let gms = (self.ids_terminals(w, vg, vd, vs + H, vb)
            - self.ids_terminals(w, vg, vd, vs - H, vb))
            / (2.0 * H);
        let gmb = (self.ids_terminals(w, vg, vd, vs, vb + H)
            - self.ids_terminals(w, vg, vd, vs, vb - H))
            / (2.0 * H);

        let i_g_s = self.gate_tunnel(w, vg - vs);
        let i_g_d = self.gate_tunnel(w, vg - vd);
        let g_gs =
            (self.gate_tunnel(w, vg - vs + H) - self.gate_tunnel(w, vg - vs - H)) / (2.0 * H);
        let g_gd =
            (self.gate_tunnel(w, vg - vd + H) - self.gate_tunnel(w, vg - vd - H)) / (2.0 * H);

        MosOp {
            i_d,
            gm,
            gds,
            gms,
            gmb,
            i_g_s,
            i_g_d,
            g_gs,
            g_gd,
        }
    }

    /// Static leakage breakdown at the given absolute terminal voltages.
    pub fn leakage(&self, w: f64, vg: f64, vd: f64, vs: f64, vb: f64) -> LeakageBreakdown {
        let channel = self.ids_terminals(w, vg, vd, vs, vb).abs();
        let gate = self.gate_tunnel(w, vg - vs).abs() + self.gate_tunnel(w, vg - vd).abs();
        let junction = self.junction_leak(w, vd - vb).abs() + self.junction_leak(w, vs - vb).abs();
        LeakageBreakdown {
            channel: Amps(channel),
            gate: Amps(gate),
            junction: Amps(junction),
        }
    }

    /// Linearized terminal capacitances for a device of width `w`.
    pub fn capacitances(&self, w: f64) -> MosCaps {
        let p = &self.params;
        let c_ch = p.cox_per_area * w * p.length;
        let c_ov = p.c_overlap_per_w * w;
        let c_j = p.c_junction_per_w * w;
        MosCaps {
            cgs: Farads(0.5 * c_ch + c_ov),
            cgd: Farads(0.5 * c_ch + c_ov),
            cdb: Farads(c_j),
            csb: Farads(c_j),
        }
    }

    /// Saturation drive current at full gate overdrive (|Vgs| = |Vds| =
    /// `vdd`), a convenient strength metric for sizing.
    pub fn ion(&self, w: f64, vdd: Volts) -> Amps {
        match self.params.polarity {
            Polarity::Nmos => Amps(self.ids_terminals(w, vdd.0, vdd.0, 0.0, 0.0)),
            Polarity::Pmos => Amps(-self.ids_terminals(w, 0.0, 0.0, vdd.0, vdd.0)),
        }
    }

    /// Off-state channel leakage (|Vgs| = 0, |Vds| = `vdd`).
    pub fn ioff(&self, w: f64, vdd: Volts) -> Amps {
        match self.params.polarity {
            Polarity::Nmos => Amps(self.ids_terminals(w, 0.0, vdd.0, 0.0, 0.0)),
            Polarity::Pmos => Amps(-self.ids_terminals(w, vdd.0, 0.0, vdd.0, vdd.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node45::Node45;

    fn nmos() -> MosModel {
        Node45::tt().mos(Polarity::Nmos, VtClass::Nominal)
    }

    fn nmos_hvt() -> MosModel {
        Node45::tt().mos(Polarity::Nmos, VtClass::High)
    }

    fn pmos() -> MosModel {
        Node45::tt().mos(Polarity::Pmos, VtClass::Nominal)
    }

    const W: f64 = 450.0e-9;

    #[test]
    fn analytic_eval_matches_finite_differences() {
        // The analytic gradients must agree with the central-difference
        // oracle across polarities, Vt classes, and a dense bias grid
        // (generic points — exact model kinks are smeared by FD anyway).
        let models = [nmos(), nmos_hvt(), pmos()];
        let grid = [0.03, 0.21, 0.47, 0.73, 0.99];
        for m in &models {
            for &vg in &grid {
                for &vd in &grid {
                    for &vs in &[0.01, 0.52] {
                        for &vb in &[0.0, 0.11] {
                            let a = m.eval(W, vg, vd, vs, vb);
                            let f = m.eval_fd(W, vg, vd, vs, vb);
                            let close = |x: f64, y: f64, what: &str| {
                                let tol = 1.0e-4 * y.abs().max(1.0e-12);
                                assert!(
                                    (x - y).abs() <= tol,
                                    "{what} @ ({vg},{vd},{vs},{vb}) {:?}: analytic {x:e} vs fd {y:e}",
                                    m.params.polarity
                                );
                            };
                            assert_eq!(a.i_d, f.i_d, "current paths must be identical");
                            close(a.gm, f.gm, "gm");
                            close(a.gds, f.gds, "gds");
                            close(a.gms, f.gms, "gms");
                            close(a.gmb, f.gmb, "gmb");
                            assert_eq!(a.i_g_s, f.i_g_s);
                            assert_eq!(a.i_g_d, f.i_g_d);
                            close(a.g_gs, f.g_gs, "g_gs");
                            close(a.g_gd, f.g_gd, "g_gd");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ekv_f_limits() {
        // Weak inversion: F(u) ≈ e^u.
        let u = -10.0;
        assert!((ekv_f(u) / u.exp() - 1.0).abs() < 0.02);
        // Strong inversion: F(u) ≈ u²/4.
        let u = 40.0;
        assert!((ekv_f(u) / (u * u / 4.0) - 1.0).abs() < 0.15);
    }

    #[test]
    fn on_off_ratio_is_large() {
        let m = nmos();
        let ion = m.ion(W, Volts(1.0)).0;
        let ioff = m.ioff(W, Volts(1.0)).0;
        assert!(ion > 0.0 && ioff > 0.0);
        assert!(ion / ioff > 1.0e3, "Ion/Ioff = {}", ion / ioff);
    }

    #[test]
    fn high_vt_leaks_about_an_order_less() {
        let lo = nmos().ioff(W, Volts(1.0)).0;
        let hi = nmos_hvt().ioff(W, Volts(1.0)).0;
        let ratio = lo / hi;
        assert!(
            (5.0..3.0e3).contains(&ratio),
            "expected 5–3000× subthreshold reduction, got {ratio}"
        );
    }

    #[test]
    fn high_vt_still_drives_most_of_the_current() {
        let lo = nmos().ion(W, Volts(1.0)).0;
        let hi = nmos_hvt().ion(W, Volts(1.0)).0;
        let ratio = hi / lo;
        assert!(
            (0.4..1.0).contains(&ratio),
            "high-Vt drive should be a moderate fraction of nominal, got {ratio}"
        );
    }

    #[test]
    fn pmos_current_sign_convention() {
        let m = pmos();
        // Conducting PMOS: gate low, source at Vdd, drain low.
        let id = m.ids_terminals(W, 0.0, 0.0, 1.0, 1.0);
        assert!(id < 0.0, "conducting PMOS drain current must be negative");
    }

    #[test]
    fn channel_is_source_drain_symmetric() {
        let m = nmos();
        // Swap source/drain; current must reverse exactly.
        let fwd = m.ids_terminals(W, 1.0, 0.7, 0.2, 0.0);
        let rev = m.ids_terminals(W, 1.0, 0.2, 0.7, 0.0);
        assert!(
            (fwd + rev).abs() < 1e-12 * fwd.abs().max(1.0),
            "fwd {fwd} rev {rev}"
        );
    }

    #[test]
    fn monotonic_in_vgs() {
        let m = nmos();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=50 {
            let vg = i as f64 / 50.0;
            let id = m.ids_terminals(W, vg, 1.0, 0.0, 0.0);
            assert!(id > prev, "Ids must rise with Vgs (vg = {vg})");
            prev = id;
        }
    }

    #[test]
    fn subthreshold_slope_close_to_card() {
        let m = nmos();
        // Measure decades of current per volt well below threshold
        // (the window must stay ≳ 100 mV under Vth,eff, where the EKV
        // interpolation is purely exponential).
        let i1 = m.ids_terminals(W, 0.00, 1.0, 0.0, 0.0);
        let i2 = m.ids_terminals(W, 0.05, 1.0, 0.0, 0.0);
        let decades_per_volt = (i2 / i1).log10() / 0.05;
        let expected = 1.0 / (m.params().n_slope * m.v_t * std::f64::consts::LN_10);
        assert!(
            (decades_per_volt / expected - 1.0).abs() < 0.15,
            "slope {decades_per_volt} vs expected {expected}"
        );
    }

    #[test]
    fn dibl_raises_leakage_with_vds() {
        let m = nmos();
        let low = m.ids_terminals(W, 0.0, 0.1, 0.0, 0.0);
        let high = m.ids_terminals(W, 0.0, 1.0, 0.0, 0.0);
        assert!(high > low * 1.2, "DIBL must raise off-current with Vds");
    }

    #[test]
    fn gate_leak_grows_exponentially_with_bias() {
        let m = nmos();
        let low = m.leakage(W, 0.0, 0.5, 0.5, 0.0).gate.0;
        let high = m.leakage(W, 0.0, 1.0, 1.0, 0.0).gate.0;
        assert!(high > 2.0 * low, "gate leakage must grow with |Vgd|");
        let none = m.leakage(W, 0.0, 0.0, 0.0, 0.0).gate.0;
        assert!(none < 0.1 * low, "no oxide bias ⇒ negligible gate leakage");
    }

    #[test]
    fn leakage_total_adds_components() {
        let m = nmos();
        let l = m.leakage(W, 0.0, 1.0, 0.0, 0.0);
        let sum = l.channel.0 + l.gate.0 + l.junction.0;
        assert!((l.total().0 - sum).abs() <= 1e-18);
    }

    #[test]
    fn hotter_leaks_more() {
        let tech = Node45::tt();
        let cold = tech.mos_at(Polarity::Nmos, VtClass::Nominal, 300.0);
        let hot = tech.mos_at(Polarity::Nmos, VtClass::Nominal, 380.0);
        assert!(hot.ioff(W, Volts(1.0)).0 > 3.0 * cold.ioff(W, Volts(1.0)).0);
    }

    #[test]
    fn derivatives_match_secants() {
        let m = nmos();
        let op = m.eval(W, 0.6, 0.8, 0.1, 0.0);
        let h = 1e-4;
        let gm_ref = (m.ids_terminals(W, 0.6 + h, 0.8, 0.1, 0.0)
            - m.ids_terminals(W, 0.6 - h, 0.8, 0.1, 0.0))
            / (2.0 * h);
        assert!((op.gm - gm_ref).abs() < 1e-3 * gm_ref.abs().max(1e-12));
    }

    #[test]
    fn capacitances_scale_with_width() {
        let m = nmos();
        let c1 = m.capacitances(W);
        let c2 = m.capacitances(2.0 * W);
        assert!((c2.cgs.0 / c1.cgs.0 - 2.0).abs() < 1e-9);
        assert!((c2.cdb.0 / c1.cdb.0 - 2.0).abs() < 1e-9);
        assert!(c1.gate_total().0 > 0.0);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let tech = Node45::tt();
        let mut p = tech.mos(Polarity::Nmos, VtClass::Nominal).params().clone();
        p.vth0 = -0.1;
        assert!(MosModel::at_room_temperature(p).is_err());
    }

    #[test]
    fn ion_ballpark_for_45nm() {
        // HP 45 nm NMOS drives very roughly ~0.5–2 mA/µm.
        let m = nmos();
        let per_um = m.ion(1.0e-6, Volts(1.0)).0;
        assert!(
            (2e-4..3e-3).contains(&per_um),
            "Ion/µm = {per_um} out of 45 nm ballpark"
        );
    }

    #[test]
    fn ioff_ballpark_for_45nm() {
        // HP 45 nm NMOS subthreshold: very roughly 10–500 nA/µm at room T.
        let m = nmos();
        let per_um = m.ioff(1.0e-6, Volts(1.0)).0;
        assert!(
            (1e-9..2e-6).contains(&per_um),
            "Ioff/µm = {per_um} out of 45 nm ballpark"
        );
    }
}
