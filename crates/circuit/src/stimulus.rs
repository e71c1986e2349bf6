//! Time-varying source descriptions.
//!
//! Every voltage source in a [`crate::netlist::Netlist`] carries a
//! `Stimulus` evaluated at each time point. DC analysis evaluates at
//! `t = 0` unless a source opts into its final value via
//! [`Stimulus::dc_value`] semantics (DC uses the *initial* value; the
//! transient engine owns time evolution).

use serde::{Deserialize, Serialize};

/// A voltage-vs-time recipe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Stimulus {
    /// Constant voltage.
    Dc(f64),
    /// A single step from `from` to `to` at time `at`, with linear ramp
    /// of duration `rise`.
    Step {
        /// Initial level (V).
        from: f64,
        /// Final level (V).
        to: f64,
        /// Step start time (s).
        at: f64,
        /// Ramp duration (s).
        rise: f64,
    },
    /// Periodic pulse train (SPICE PULSE-like).
    Pulse {
        /// Base level (V).
        low: f64,
        /// Pulsed level (V).
        high: f64,
        /// Delay before the first edge (s).
        delay: f64,
        /// Rise time (s).
        rise: f64,
        /// Fall time (s).
        fall: f64,
        /// Time spent at `high` (s).
        width: f64,
        /// Pulse period (s).
        period: f64,
    },
    /// Piece-wise linear: sorted `(time, voltage)` points; constant
    /// extrapolation outside the range.
    Pwl(Vec<(f64, f64)>),
}

impl Stimulus {
    /// Constant source.
    pub fn dc(volts: f64) -> Self {
        Stimulus::Dc(volts)
    }

    /// A step from `from` to `to` at time `at` with a default 2 ps ramp.
    pub fn step(from: f64, to: f64, at: f64) -> Self {
        Stimulus::Step {
            from,
            to,
            at,
            rise: 2.0e-12,
        }
    }

    /// A step with an explicit ramp duration.
    pub fn ramp(from: f64, to: f64, at: f64, rise: f64) -> Self {
        Stimulus::Step { from, to, at, rise }
    }

    /// A 50 %-duty clock of the given period starting low, with edge
    /// times of 5 % of the period.
    pub fn clock(low: f64, high: f64, period: f64) -> Self {
        let edge = 0.05 * period;
        Stimulus::Pulse {
            low,
            high,
            delay: 0.5 * period,
            rise: edge,
            fall: edge,
            width: 0.5 * period - edge,
            period,
        }
    }

    /// Value at time `t`.
    pub fn at(&self, t: f64) -> f64 {
        match self {
            Stimulus::Dc(v) => *v,
            Stimulus::Step { from, to, at, rise } => {
                if t <= *at {
                    *from
                } else if t >= at + rise {
                    *to
                } else {
                    from + (to - from) * (t - at) / rise
                }
            }
            Stimulus::Pulse {
                low,
                high,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *low;
                }
                let tp = (t - delay) % period;
                if tp < *rise {
                    low + (high - low) * tp / rise
                } else if tp < rise + width {
                    *high
                } else if tp < rise + width + fall {
                    high - (high - low) * (tp - rise - width) / fall
                } else {
                    *low
                }
            }
            Stimulus::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for pair in points.windows(2) {
                    let (t0, v0) = pair[0];
                    let (t1, v1) = pair[1];
                    if t <= t1 {
                        if t1 == t0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points.last().expect("non-empty checked above").1
            }
        }
    }

    /// The value used for the DC operating point (the `t = 0` value).
    pub fn dc_value(&self) -> f64 {
        self.at(0.0)
    }

    /// The latest time `T` up to which `self` and `other` agree bit for
    /// bit: `self.at(t)` and `other.at(t)` have identical bits for every
    /// `t ≤ T`. `+∞` when they agree everywhere, `−∞` when no agreement
    /// is proven (they may still agree — the answer is conservative).
    ///
    /// Three cases are recognized: bitwise-identical stimuli; equal
    /// constant prefixes (a [`Stimulus::Dc`], the `from` level before a
    /// [`Stimulus::Step`], the `low` level before a [`Stimulus::Pulse`]'s
    /// delay, the leading flat points of a [`Stimulus::Pwl`]); and
    /// piece-wise linear sources with a common leading point list, each
    /// continuing flat from its last common point. A transient engine
    /// uses this to step one shared prefix for several runs.
    pub fn agrees_until(&self, other: &Stimulus) -> f64 {
        if self.bits_eq(other) {
            return f64::INFINITY;
        }
        if let (Stimulus::Pwl(a), Stimulus::Pwl(b)) = (self, other) {
            let common = a
                .iter()
                .zip(b)
                .take_while(|(p, q)| point_bits_eq(**p, **q))
                .count();
            if common > 0 {
                return earliest(pwl_flat_until(a, common - 1), pwl_flat_until(b, common - 1));
            }
        }
        match (self.constant_prefix(), other.constant_prefix()) {
            (Some((va, ta)), Some((vb, tb))) if va.to_bits() == vb.to_bits() => earliest(ta, tb),
            _ => f64::NEG_INFINITY,
        }
    }

    /// `(v, T)` such that `self.at(t)` is exactly `v` for every `t ≤ T`.
    fn constant_prefix(&self) -> Option<(f64, f64)> {
        match self {
            Stimulus::Dc(v) => Some((*v, f64::INFINITY)),
            // `t <= at` returns `from` verbatim.
            Stimulus::Step { from, at, .. } => Some((*from, *at)),
            // `t < delay` returns `low` verbatim; the largest such `t` is
            // the float just below `delay`.
            Stimulus::Pulse { low, delay, .. } => Some((*low, delay.next_down())),
            Stimulus::Pwl(points) => match points.first() {
                None => Some((0.0, f64::INFINITY)),
                Some(&(_, v)) => Some((v, pwl_flat_until(points, 0))),
            },
        }
    }

    /// Bitwise equality of every parameter.
    fn bits_eq(&self, other: &Stimulus) -> bool {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        match (self, other) {
            (Stimulus::Dc(a), Stimulus::Dc(b)) => a.to_bits() == b.to_bits(),
            (
                Stimulus::Step { from, to, at, rise },
                Stimulus::Step {
                    from: f2,
                    to: t2,
                    at: a2,
                    rise: r2,
                },
            ) => same(&[*from, *to, *at, *rise], &[*f2, *t2, *a2, *r2]),
            (
                Stimulus::Pulse {
                    low,
                    high,
                    delay,
                    rise,
                    fall,
                    width,
                    period,
                },
                Stimulus::Pulse {
                    low: l2,
                    high: h2,
                    delay: d2,
                    rise: r2,
                    fall: f2,
                    width: w2,
                    period: p2,
                },
            ) => same(
                &[*low, *high, *delay, *rise, *fall, *width, *period],
                &[*l2, *h2, *d2, *r2, *f2, *w2, *p2],
            ),
            (Stimulus::Pwl(a), Stimulus::Pwl(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(p, q)| point_bits_eq(*p, *q))
            }
            _ => false,
        }
    }

    /// The earliest time after which the source no longer changes, or
    /// `None` for periodic sources. Used by callers to size analyses.
    pub fn settle_time(&self) -> Option<f64> {
        match self {
            Stimulus::Dc(_) => Some(0.0),
            Stimulus::Step { at, rise, .. } => Some(at + rise),
            Stimulus::Pulse { .. } => None,
            Stimulus::Pwl(points) => points.last().map(|&(t, _)| t),
        }
    }
}

/// The earlier of two agreement times; a NaN time (from NaN parameters)
/// proves nothing.
fn earliest(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NEG_INFINITY
    } else {
        a.min(b)
    }
}

fn point_bits_eq(p: (f64, f64), q: (f64, f64)) -> bool {
    p.0.to_bits() == q.0.to_bits() && p.1.to_bits() == q.1.to_bits()
}

/// The latest time up to which a piece-wise linear source is still
/// exactly `points[i].1`, given that it is at `points[i].0`: the run of
/// following points with the same value bits, `+∞` if it runs to the end
/// (constant extrapolation). A flat segment evaluates to `v + 0.0`, which
/// is `v` bit for bit unless `v` is `−0.0` or not finite; such levels end
/// the run at `points[i].0`.
fn pwl_flat_until(points: &[(f64, f64)], i: usize) -> f64 {
    let (t_i, v) = points[i];
    if !v.is_finite() || v.to_bits() == (-0.0_f64).to_bits() {
        return t_i;
    }
    match points[i + 1..]
        .iter()
        .position(|p| p.1.to_bits() != v.to_bits())
    {
        None => f64::INFINITY,
        Some(off) => points[i + off].0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dc_is_flat() {
        let s = Stimulus::dc(0.7);
        assert_eq!(s.at(0.0), 0.7);
        assert_eq!(s.at(1.0), 0.7);
        assert_eq!(s.dc_value(), 0.7);
    }

    #[test]
    fn step_interpolates_linearly() {
        let s = Stimulus::ramp(0.0, 1.0, 10e-12, 4e-12);
        assert_eq!(s.at(0.0), 0.0);
        assert_eq!(s.at(10e-12), 0.0);
        assert!((s.at(12e-12) - 0.5).abs() < 1e-9);
        assert_eq!(s.at(14e-12), 1.0);
        assert_eq!(s.at(1.0), 1.0);
    }

    #[test]
    fn pulse_is_periodic() {
        let s = Stimulus::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 0.0,
            rise: 1e-12,
            fall: 1e-12,
            width: 4e-12,
            period: 10e-12,
        };
        assert!((s.at(2e-12) - 1.0).abs() < 1e-9);
        assert!((s.at(12e-12) - 1.0).abs() < 1e-9);
        assert!(s.at(8e-12) < 1e-9);
        assert!(s.at(18e-12) < 1e-9);
    }

    #[test]
    fn clock_starts_low_and_toggles() {
        let s = Stimulus::clock(0.0, 1.0, 100e-12);
        assert_eq!(s.at(0.0), 0.0);
        assert!(s.at(25e-12) < 0.5, "first half-period stays low");
        assert!(s.at(60e-12) > 0.5, "second half-period is high");
    }

    #[test]
    fn pwl_endpoints_clamp() {
        let s = Stimulus::Pwl(vec![(1e-12, 0.2), (2e-12, 0.8)]);
        assert_eq!(s.at(0.0), 0.2);
        assert!((s.at(1.5e-12) - 0.5).abs() < 1e-9);
        assert_eq!(s.at(5e-12), 0.8);
    }

    #[test]
    fn pwl_empty_is_zero() {
        assert_eq!(Stimulus::Pwl(vec![]).at(1.0), 0.0);
    }

    #[test]
    fn agreement_recognizes_the_characterization_stimuli() {
        let vdd = 1.0;
        let prime = |tail: &[(f64, f64)]| {
            let mut p = vec![(0.0, 0.0), (40.0e-12, 0.0), (45.0e-12, vdd)];
            p.extend_from_slice(tail);
            Stimulus::Pwl(p)
        };
        let fall = prime(&[(400.0e-12, vdd), (405.0e-12, 0.0)]);
        let cycle = prime(&[(300.0e-12, vdd), (305.0e-12, 0.0)]);
        let hold = prime(&[]);
        let rise = Stimulus::Pwl(vec![(0.0, 0.0), (400.0e-12, 0.0), (405.0e-12, vdd)]);
        let low = Stimulus::Pwl(vec![(0.0, 0.0), (40.0e-12, 0.0), (45.0e-12, 0.0)]);
        assert_eq!(fall.agrees_until(&cycle), 300.0e-12);
        assert_eq!(fall.agrees_until(&hold), 400.0e-12);
        assert_eq!(fall.agrees_until(&rise), 40.0e-12);
        assert_eq!(rise.agrees_until(&low), 400.0e-12);
        assert_eq!(hold.agrees_until(&hold.clone()), f64::INFINITY);
        // A static level against a ramp leaving it.
        let on = Stimulus::dc(vdd);
        let release = Stimulus::ramp(vdd, 0.0, 300.0e-12, 5.0e-12);
        assert_eq!(on.agrees_until(&release), 300.0e-12);
        assert_eq!(release.agrees_until(&on), 300.0e-12);
        // Different starting levels never agree.
        assert_eq!(on.agrees_until(&Stimulus::dc(0.0)), f64::NEG_INFINITY);
        // A pulse holds `low` strictly before its delay.
        let clock = Stimulus::clock(0.0, vdd, 100.0e-12);
        let t = Stimulus::dc(0.0).agrees_until(&clock);
        assert!(t < 50.0e-12 && t.next_up() == 50.0e-12, "{t:e}");
        // A NaN parameter proves nothing.
        let nan = Stimulus::ramp(0.0, 1.0, f64::NAN, 1.0e-12);
        assert_eq!(nan.agrees_until(&Stimulus::dc(0.0)), f64::NEG_INFINITY);
    }

    /// Levels and times on coarse grids, so random pairs often share
    /// levels, points and prefixes.
    fn level(p: u64) -> f64 {
        [0.0, 0.5, 1.0, -0.0][(p % 4) as usize]
    }

    fn time(p: u64) -> f64 {
        (p % 24) as f64 * 0.25e-12
    }

    fn pwl_points(p: &[u64]) -> Vec<(f64, f64)> {
        let n = (p[0] % 6) as usize;
        let mut t = 0.0;
        (0..n)
            .map(|i| {
                t += time(p[1 + 2 * i]);
                (t, level(p[2 + 2 * i]))
            })
            .collect()
    }

    fn draw(kind: u64, p: &[u64]) -> Stimulus {
        match kind % 4 {
            0 => Stimulus::dc(level(p[0])),
            1 => Stimulus::ramp(level(p[0]), level(p[1]), time(p[2]), 0.1e-12 + time(p[3])),
            2 => Stimulus::Pulse {
                low: level(p[0]),
                high: level(p[1]),
                delay: time(p[2]),
                rise: 0.1e-12 + time(p[3]),
                fall: 0.1e-12 + time(p[4]),
                width: time(p[5]),
                period: 2.0e-12 + time(p[6]),
            },
            _ => Stimulus::Pwl(pwl_points(p)),
        }
    }

    /// Every time a fixed-step transient evaluates sources at: each step
    /// end and each bisection sub-step end down to depth 4, formed the
    /// way the stepping loop forms them.
    fn evaluation_times(t_start: f64, h: f64, depth: u32, out: &mut Vec<f64>) {
        out.push(t_start + h);
        if depth < 4 {
            evaluation_times(t_start, 0.5 * h, depth + 1, out);
            evaluation_times(t_start + 0.5 * h, 0.5 * h, depth + 1, out);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn agreement_is_bitwise_up_to_its_time(
            kinds in proptest::collection::vec(0u64..4, 2),
            pa in proptest::collection::vec(0u64..1000, 12),
            pb in proptest::collection::vec(0u64..1000, 12),
            keep in 0usize..6,
            dt_tenths in 1u64..5,
        ) {
            let a = draw(kinds[0], &pa);
            // Half the pairs are two PWLs sharing a leading point list.
            let b = match (&a, kinds[1] % 2) {
                (Stimulus::Pwl(points), 0) => {
                    let mut shared: Vec<(f64, f64)> =
                        points[..keep.min(points.len())].to_vec();
                    let t_last = shared.last().map_or(0.0, |p| p.0);
                    shared.extend(pwl_points(&pb).into_iter().map(|(t, v)| (t_last + t, v)));
                    Stimulus::Pwl(shared)
                }
                _ => draw(kinds[1], &pb),
            };
            let agreed = a.agrees_until(&b);
            prop_assert_eq!(agreed.to_bits(), b.agrees_until(&a).to_bits());
            let dt = dt_tenths as f64 * 0.1e-12;
            let mut times = vec![0.0];
            for step in 1..=80u32 {
                let t = step as f64 * dt;
                evaluation_times(t - dt, dt, 0, &mut times);
            }
            for t in times.into_iter().filter(|&t| t <= agreed) {
                prop_assert!(
                    a.at(t).to_bits() == b.at(t).to_bits(),
                    "{a:?} vs {b:?} agree until {agreed:e} but differ at {t:e}"
                );
            }
        }
    }

    #[test]
    fn settle_times() {
        assert_eq!(Stimulus::dc(1.0).settle_time(), Some(0.0));
        assert_eq!(Stimulus::step(0.0, 1.0, 5e-12).settle_time(), Some(7e-12));
        assert_eq!(Stimulus::clock(0.0, 1.0, 1e-9).settle_time(), None);
    }
}
