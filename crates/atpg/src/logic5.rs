use std::fmt;

use fastmon_netlist::GateKind;

/// The five-valued logic of PODEM: good/faulty value pairs.
///
/// `D` means good-1/faulty-0, `Db` ("D-bar") good-0/faulty-1, `X` unknown.
///
/// Each value is stored as four bits, one per known machine value:
/// good-0, good-1, faulty-0 and faulty-1, so a gate evaluates both
/// machines in a few bitwise operations.
/// A machine whose value is unknown has neither of its bits set, and `X`
/// has none at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum V5 {
    /// Constant 0 in both machines.
    Zero = G0 | F0,
    /// Constant 1 in both machines.
    One = G1 | F1,
    /// Unassigned / unknown.
    X = 0,
    /// Good 1, faulty 0.
    D = G1 | F0,
    /// Good 0, faulty 1.
    Db = G0 | F1,
}

/// The good machine is 0.
const G0: u8 = 0b0001;
/// The good machine is 1.
const G1: u8 = 0b0010;
/// The faulty machine is 0.
const F0: u8 = 0b0100;
/// The faulty machine is 1.
const F1: u8 = 0b1000;
/// Both 0-bits.
const ZEROS: u8 = G0 | F0;
/// Both 1-bits.
const ONES: u8 = G1 | F1;

impl V5 {
    /// Builds a value from known good/faulty bits.
    #[must_use]
    pub fn from_pair(good: bool, faulty: bool) -> Self {
        match (good, faulty) {
            (false, false) => V5::Zero,
            (true, true) => V5::One,
            (true, false) => V5::D,
            (false, true) => V5::Db,
        }
    }

    /// The good-machine bit, if known.
    #[must_use]
    pub fn good(self) -> Option<bool> {
        match self {
            V5::Zero | V5::Db => Some(false),
            V5::One | V5::D => Some(true),
            V5::X => None,
        }
    }

    /// The faulty-machine bit, if known.
    #[must_use]
    pub fn faulty(self) -> Option<bool> {
        match self {
            V5::Zero | V5::D => Some(false),
            V5::One | V5::Db => Some(true),
            V5::X => None,
        }
    }

    /// Whether the value carries a fault effect.
    #[must_use]
    pub fn is_fault_effect(self) -> bool {
        matches!(self, V5::D | V5::Db)
    }

    /// Whether the value is a known constant (0 or 1).
    #[must_use]
    pub fn is_binary(self) -> bool {
        matches!(self, V5::Zero | V5::One)
    }

    /// Converts a plain bool.
    #[must_use]
    pub fn from_bool(b: bool) -> Self {
        if b {
            V5::One
        } else {
            V5::Zero
        }
    }

    /// The value whose bits are `bits`; any pattern in which a machine
    /// has neither bit set is `X`.
    fn from_bits(bits: u8) -> Self {
        match bits {
            ZEROS => V5::Zero,
            ONES => V5::One,
            0b0110 => V5::D,  // G1 | F0
            0b1001 => V5::Db, // G0 | F1
            _ => V5::X,
        }
    }

    /// This value with its good machine kept and its faulty machine
    /// forced to `stuck_at`: the output of a stuck-at fault site. `X`
    /// when the good machine is unknown.
    #[must_use]
    pub(crate) fn with_faulty(self, stuck_at: bool) -> Self {
        let good = self as u8 & (G0 | G1);
        if good == 0 {
            V5::X
        } else {
            V5::from_bits(good | if stuck_at { F1 } else { F0 })
        }
    }

    /// Logical complement (X stays X, D ↔ Db).
    // the name mirrors the textbook PODEM operation; V5 is Copy, so there
    // is no ambiguity with `std::ops::Not::not` on references
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn not(self) -> Self {
        match self {
            V5::Zero => V5::One,
            V5::One => V5::Zero,
            V5::X => V5::X,
            V5::D => V5::Db,
            V5::Db => V5::D,
        }
    }
}

impl fmt::Display for V5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            V5::Zero => "0",
            V5::One => "1",
            V5::X => "X",
            V5::D => "D",
            V5::Db => "D̄",
        };
        f.write_str(s)
    }
}

/// Swaps each machine's 0-bit and 1-bit: the output of an inverting gate.
fn invert(bits: u8) -> u8 {
    ((bits & ZEROS) << 1) | ((bits & ONES) >> 1)
}

/// Evaluates a gate in 5-valued logic on the four-bit encoding of
/// [`V5`], both machines at once.
///
/// - AND class: an output machine is 0 when any input's is 0, and 1 when
///   every input's is 1 (OR of the 0-bits, AND of the 1-bits).
/// - OR class: the roles of the 0-bits and 1-bits swap.
/// - XOR class: the parity of the 1-bits, once every input is known; an
///   `X` input makes the output `X`.
/// - Inverting gates swap each machine's bit pair; `Input` and `Dff` pass
///   their one input through, and constants ignore their inputs.
///
/// A machine left with neither bit set makes the output `X`, as in the
/// model: a value is known only when both machines are.
#[inline]
pub(crate) fn eval_gate5(kind: GateKind, inputs: impl IntoIterator<Item = V5>) -> V5 {
    let mut inputs = inputs.into_iter();
    let bits = match kind {
        GateKind::Const0 => ZEROS,
        GateKind::Const1 => ONES,
        GateKind::Input | GateKind::Dff | GateKind::Buf | GateKind::Not => {
            inputs.next().map_or(0, |v| v as u8)
        }
        GateKind::And | GateKind::Nand => {
            let (mut zeros, mut ones) = (0, ONES);
            for v in inputs {
                zeros |= v as u8 & ZEROS;
                ones &= v as u8;
            }
            zeros | ones
        }
        GateKind::Or | GateKind::Nor => {
            let (mut zeros, mut ones) = (ZEROS, 0);
            for v in inputs {
                zeros &= v as u8;
                ones |= v as u8 & ONES;
            }
            zeros | ones
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut parity = 0;
            for v in inputs {
                if v == V5::X {
                    return V5::X;
                }
                parity ^= v as u8 & ONES;
            }
            parity | ((parity ^ ONES) >> 1)
        }
    };
    V5::from_bits(if kind.is_inverting() {
        invert(bits)
    } else {
        bits
    })
}

/// Evaluates a gate in 5-valued logic by evaluating the good and faulty
/// machines separately (exact for a single fault): the reference that
/// [`eval_gate5`] is tested against.
#[cfg(test)]
#[must_use]
pub(crate) fn eval5(kind: GateKind, inputs: &[V5]) -> V5 {
    // three-valued evaluation of one machine
    fn eval3<F: Fn(V5) -> Option<bool>>(kind: GateKind, inputs: &[V5], side: F) -> Option<bool> {
        match kind {
            GateKind::Const0 => return Some(false),
            GateKind::Const1 => return Some(true),
            _ => {}
        }
        if matches!(
            kind,
            GateKind::Buf | GateKind::Not | GateKind::Input | GateKind::Dff
        ) {
            let v = side(inputs[0]);
            return match kind {
                GateKind::Not => v.map(|b| !b),
                _ => v,
            };
        }
        let invert = kind.is_inverting();
        match kind {
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                // controlling value short-circuit
                let ctrl = kind
                    .controlling_value()
                    .unwrap_or_else(|| unreachable!("and/or class has a controlling value"));
                let mut any_x = false;
                for &i in inputs {
                    match side(i) {
                        Some(v) if v == ctrl => return Some(ctrl ^ invert),
                        Some(_) => {}
                        None => any_x = true,
                    }
                }
                if any_x {
                    None
                } else {
                    Some(!ctrl ^ invert)
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut acc = false;
                for &i in inputs {
                    match side(i) {
                        Some(v) => acc ^= v,
                        None => return None,
                    }
                }
                Some(acc ^ invert)
            }
            _ => unreachable!("handled above"),
        }
    }

    let good = eval3(kind, inputs, V5::good);
    let faulty = eval3(kind, inputs, V5::faulty);
    match (good, faulty) {
        (Some(g), Some(f)) => V5::from_pair(g, f),
        _ => V5::X,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d_propagation_through_and() {
        assert_eq!(eval5(GateKind::And, &[V5::D, V5::One]), V5::D);
        assert_eq!(eval5(GateKind::And, &[V5::D, V5::Zero]), V5::Zero);
        assert_eq!(eval5(GateKind::And, &[V5::D, V5::Db]), V5::Zero);
        assert_eq!(eval5(GateKind::Nand, &[V5::D, V5::One]), V5::Db);
    }

    #[test]
    fn x_handling() {
        assert_eq!(eval5(GateKind::And, &[V5::X, V5::Zero]), V5::Zero);
        assert_eq!(eval5(GateKind::And, &[V5::X, V5::One]), V5::X);
        assert_eq!(eval5(GateKind::Or, &[V5::X, V5::One]), V5::One);
        assert_eq!(eval5(GateKind::Xor, &[V5::X, V5::One]), V5::X);
        assert_eq!(eval5(GateKind::Not, &[V5::X]), V5::X);
    }

    #[test]
    fn xor_with_fault_effects() {
        assert_eq!(eval5(GateKind::Xor, &[V5::D, V5::Zero]), V5::D);
        assert_eq!(eval5(GateKind::Xor, &[V5::D, V5::One]), V5::Db);
        // D xor D: good 1^1=0, faulty 0^0=0
        assert_eq!(eval5(GateKind::Xor, &[V5::D, V5::D]), V5::Zero);
        // Xnor(D, Db): good !(1^0)=0, faulty !(0^1)=0
        assert_eq!(eval5(GateKind::Xnor, &[V5::D, V5::Db]), V5::Zero);
    }

    #[test]
    fn not_and_pairs() {
        assert_eq!(V5::D.not(), V5::Db);
        assert_eq!(V5::Db.not(), V5::D);
        assert_eq!(V5::X.not(), V5::X);
        assert_eq!(V5::from_pair(true, false), V5::D);
        assert_eq!(V5::D.good(), Some(true));
        assert_eq!(V5::D.faulty(), Some(false));
        assert_eq!(V5::X.good(), None);
    }

    #[test]
    fn wide_gates() {
        assert_eq!(eval5(GateKind::Nor, &[V5::Zero, V5::Zero, V5::D]), V5::Db);
        assert_eq!(eval5(GateKind::Or, &[V5::Zero, V5::X, V5::Db]), V5::X);
    }

    const ALL: [V5; 5] = [V5::Zero, V5::One, V5::X, V5::D, V5::Db];

    /// The arities each kind is checked at exhaustively.
    fn arities(kind: GateKind) -> std::ops::RangeInclusive<usize> {
        match kind {
            GateKind::Const0 | GateKind::Const1 => 0..=0,
            GateKind::Input | GateKind::Dff | GateKind::Buf | GateKind::Not => 1..=1,
            _ => 1..=6,
        }
    }

    #[test]
    fn kernel_matches_eval5_on_every_combination() {
        let mut checked = 0usize;
        let mut inputs = Vec::new();
        for kind in GateKind::ALL {
            for arity in arities(kind) {
                // every word of `arity` base-5 digits
                for mut code in 0..5usize.pow(arity as u32) {
                    inputs.clear();
                    for _ in 0..arity {
                        inputs.push(ALL[code % 5]);
                        code /= 5;
                    }
                    let want = eval5(kind, &inputs);
                    assert_eq!(
                        eval_gate5(kind, inputs.iter().copied()),
                        want,
                        "{kind} {inputs:?}"
                    );
                    checked += 1;
                }
            }
        }
        // 6 n-ary kinds at arities 1-6, 4 unary kinds, 2 constants
        assert_eq!(checked, 6 * (5 + 25 + 125 + 625 + 3125 + 15625) + 4 * 5 + 2);
    }

    #[test]
    fn kernel_matches_eval5_on_random_wide_gates() {
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let kinds = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        for _ in 0..20_000 {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let arity = rng.gen_range(1..=12);
            // mostly binary inputs, so wide gates still reach known outputs
            let inputs: Vec<V5> = (0..arity)
                .map(|_| match rng.gen_range(0..11) {
                    0..=3 => V5::Zero,
                    4..=7 => V5::One,
                    k => ALL[2 + k % 3],
                })
                .collect();
            let want = eval5(kind, &inputs);
            assert_eq!(
                eval_gate5(kind, inputs.iter().copied()),
                want,
                "{kind} {inputs:?}"
            );
        }
    }

    #[test]
    fn fault_injection_keeps_the_good_machine() {
        for v in ALL {
            for stuck_at in [false, true] {
                let want = v.good().map_or(V5::X, |g| V5::from_pair(g, stuck_at));
                assert_eq!(v.with_faulty(stuck_at), want, "{v} stuck-at {stuck_at}");
            }
        }
    }
}
