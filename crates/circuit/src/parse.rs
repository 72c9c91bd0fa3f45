//! Textual frontends: the gate DSL and the QTS scenario format.
//!
//! This module is the **single** parse layer for every textual surface of
//! the workspace — the serving protocol's circuit strings and the `qits`
//! CLI's scenario files both come through here. Every malformed
//! input is a typed [`ParseError`], never a panic: wires are validated
//! (arity, duplicates, register bounds) *before* any [`Gate`] constructor
//! runs, so a client line like `"cx 0 0"` can no longer unwind a serving
//! thread through `Gate::new`'s distinctness assertion.
//!
//! # The gate DSL
//!
//! A circuit is a sequence of gate statements separated by `;` or
//! newlines. Each statement is a gate name followed by whitespace-
//! separated arguments — wires are non-negative integers, angles are
//! radians:
//!
//! | statement | gate |
//! |---|---|
//! | `i q`, `h q`, `x q`, `y q`, `z q` | identity / Hadamard / Paulis |
//! | `s q`, `sdg q`, `t q`, `tdg q` | phase and T gates (and adjoints) |
//! | `phase q theta` | `diag(1, e^{i theta})` |
//! | `rx q theta`, `ry q theta`, `rz q theta` | axis rotations |
//! | `cx c t`, `cz c t`, `cp c t theta` | controlled X / Z / phase |
//! | `ccx c1 c2 t` | Toffoli |
//! | `swap a b` | swap |
//! | `proj q b` | projector `\|b><b\|` (b is 0 or 1) |
//!
//! Multi-wire statements must name distinct wires; extra arguments are
//! refused (a near-miss like `h 0 1` is an error, not a silently dropped
//! wire). [`parse_circuit`] infers the register as one past the highest
//! wire; [`parse_circuit_onto`] pins an explicit width;
//! [`parse_circuit_pair`] puts two circuits on one shared register (the
//! equivalence-job convention).
//!
//! # The scenario format
//!
//! A scenario file declares a whole quantum transition system plus the
//! properties to check, line-oriented with `#` comments:
//!
//! ```text
//! scenario three-qubit-demo
//! qubits 3
//!
//! # A transition: gate lines, noise channels, and projections.
//! op step {
//!   h 0
//!   cx 0 1; cx 1 2
//!   channel bitflip 2 0.125
//!   project 1:0 2:0
//! }
//!
//! # A named pure circuit, usable in equivalence properties.
//! circuit cz_via_h {
//!   h 1; cx 0 1; h 1
//! }
//! circuit cz_direct {
//!   cz 0 1
//! }
//!
//! init 0 0 0          # product state: one token per qubit
//! init + (0.6,0;0.8,0) 1
//!
//! reach 16            # reachability with an iteration bound
//! invariant 16 {      # invariant: the subspace spanned by these states
//!   0 0 0
//!   1 1 1
//! }
//! equivalent cz_via_h cz_direct
//! equivalent cz_via_h cz_direct up_to_phase
//! ```
//!
//! Declarations:
//!
//! | line | meaning |
//! |---|---|
//! | `scenario <name>` | optional display name (rest of line) |
//! | `qubits <n>` | register width, `1..=65536` (the qubits a diagram variable can address); required before any declaration that uses wires |
//! | `op <name> { ... }` | a transition operation: gate statements, `channel <kind> <q> <p>`, `project <q>:<b> ...` |
//! | `circuit <name> { ... }` | a named pure circuit (gate statements only) for `equivalent` |
//! | `init <tok> ...` | an initial product state: `0`, `1`, `+`, `-`, or `(re,im;re,im)` per qubit |
//! | `reach <k>` | a reachability property, iteration bound `k` |
//! | `invariant <k> { ... }` | an invariant property: one product state per block line |
//! | `equivalent <a> <b> [up_to_phase]` | equivalence of two named circuits/pure ops |
//!
//! Channel kinds: `bitflip` (`{sqrt(1-p) I, sqrt(p) X}`), `phaseflip`
//! (`{sqrt(1-p) I, sqrt(p) Z}`), and `depolarize` (the single-qubit
//! depolarizing channel with parameter `p`).
//!
//! [`render_scenario`] writes a [`QtsSpec`] back out in this format (for
//! the generator families built from DSL-expressible gates), so generated
//! workloads round-trip through the parser.

use std::fmt;

use qits_num::Cplx;
use qits_tensor::Var;

use crate::circuit::Circuit;
use crate::element::{Element, Operation};
use crate::gate::{Control, Gate, GateKind};
use crate::generators::{self, QtsSpec};
use crate::tensorize::states;

// ----------------------------------------------------------------------
// Errors.
// ----------------------------------------------------------------------

/// A parse failure, positioned on a 1-based source line when the input
/// was a scenario file (`line == 0` for inline DSL strings).
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line of the offending input, or 0 when the input was a
    /// single inline DSL string.
    pub line: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The reason a textual input was refused.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// A statement named a gate the DSL does not know.
    UnknownGate {
        /// The unrecognised gate name.
        name: String,
    },
    /// A gate statement ended before all its arguments.
    MissingArgument {
        /// The gate name.
        gate: String,
        /// 0-based index of the missing argument.
        index: usize,
    },
    /// A wire argument was not a non-negative integer.
    BadWire {
        /// The gate name.
        gate: String,
        /// The offending token.
        token: String,
    },
    /// An angle argument was not a finite number (`nan`, `inf` and
    /// overflowing literals such as `1e999` are refused).
    BadAngle {
        /// The gate name.
        gate: String,
        /// The offending token.
        token: String,
    },
    /// A projector basis bit was neither 0 nor 1.
    BadBasisBit {
        /// The gate name.
        gate: String,
        /// The offending value.
        bit: u32,
    },
    /// A multi-wire gate named the same wire twice (`cx 0 0`) — the
    /// input that used to unwind through `Gate::new`'s distinctness
    /// assertion.
    DuplicateWire {
        /// The gate name.
        gate: String,
        /// The repeated wire.
        wire: u32,
    },
    /// A gate statement carried more arguments than the gate takes.
    TrailingArgument {
        /// The gate name.
        gate: String,
        /// The first extra token.
        token: String,
    },
    /// A wire fell outside the declared register.
    WireOutOfRange {
        /// The offending wire.
        wire: u32,
        /// The register width it had to fit in.
        width: u32,
    },
    /// The circuit text contained no statements.
    EmptyCircuit,
    /// A scenario-level syntax problem (unknown directive, unterminated
    /// block, missing section, ...).
    Syntax {
        /// Human-readable description.
        detail: String,
    },
    /// A count or size token did not parse as the expected integer.
    BadNumber {
        /// What the number was for (`"qubits"`, `"max iterations"`, ...).
        what: &'static str,
        /// The offending token.
        token: String,
    },
    /// A channel probability fell outside `[0, 1]`.
    BadProbability {
        /// The channel kind.
        channel: String,
        /// The offending value.
        p: f64,
    },
    /// A channel declaration named an unknown kind.
    UnknownChannel {
        /// The unrecognised channel name.
        name: String,
    },
    /// An `init` or invariant state token was unreadable, or one of its
    /// amplitude components was not a finite number.
    BadStateToken {
        /// The offending token.
        token: String,
    },
    /// A product state had the wrong number of qubit tokens.
    StateWidth {
        /// Tokens found.
        got: usize,
        /// Register width expected.
        want: u32,
    },
    /// An `equivalent` property referenced an undeclared name.
    UnknownOp {
        /// The unresolved name.
        name: String,
    },
    /// Two declarations share a name.
    DuplicateOp {
        /// The repeated name.
        name: String,
    },
    /// An `equivalent` property referenced an op with noise channels,
    /// which has no single-circuit semantics.
    NotACircuit {
        /// The op name.
        op: String,
    },
    /// A declaration that uses wires appeared before `qubits <n>`.
    MissingQubits,
    /// A spec element has no DSL spelling (multi-controlled gates beyond
    /// Toffoli, custom matrices, unrecognised channels) — rendering only.
    Unrenderable {
        /// What could not be rendered.
        detail: String,
    },
}

impl ParseError {
    fn inline(kind: ParseErrorKind) -> ParseError {
        ParseError { line: 0, kind }
    }

    fn at(line: usize, kind: ParseErrorKind) -> ParseError {
        ParseError { line, kind }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.kind)
        } else {
            write!(f, "{}", self.kind)
        }
    }
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ParseErrorKind::*;
        match self {
            UnknownGate { name } => write!(f, "unknown gate '{name}'"),
            MissingArgument { gate, index } => {
                write!(f, "'{gate}' is missing argument {index}")
            }
            BadWire { gate, token } => write!(f, "'{gate}': bad wire '{token}'"),
            BadAngle { gate, token } => write!(f, "'{gate}': bad angle '{token}'"),
            BadBasisBit { gate, bit } => {
                write!(f, "'{gate}': basis bit must be 0 or 1, got {bit}")
            }
            DuplicateWire { gate, wire } => {
                write!(
                    f,
                    "'{gate}': duplicate wire {wire} (wires must be distinct)"
                )
            }
            TrailingArgument { gate, token } => {
                write!(f, "'{gate}': unexpected extra argument '{token}'")
            }
            WireOutOfRange { wire, width } => {
                write!(f, "wire {wire} outside the {width}-qubit register")
            }
            EmptyCircuit => write!(f, "empty circuit"),
            Syntax { detail } => write!(f, "{detail}"),
            BadNumber { what, token } => write!(f, "bad {what} '{token}'"),
            BadProbability { channel, p } => {
                write!(f, "'{channel}': probability {p} outside [0, 1]")
            }
            UnknownChannel { name } => write!(f, "unknown channel '{name}'"),
            BadStateToken { token } => write!(
                f,
                "bad state token '{token}' (expected 0, 1, +, -, or (re,im;re,im))"
            ),
            StateWidth { got, want } => {
                write!(f, "state has {got} qubit token(s), register has {want}")
            }
            UnknownOp { name } => write!(f, "no op or circuit named '{name}'"),
            DuplicateOp { name } => write!(f, "duplicate declaration of '{name}'"),
            NotACircuit { op } => write!(
                f,
                "op '{op}' has noise channels and cannot be compared as a circuit"
            ),
            MissingQubits => write!(f, "'qubits <n>' must be declared first"),
            Unrenderable { detail } => write!(f, "not expressible in the DSL: {detail}"),
        }
    }
}

impl std::error::Error for ParseError {}

// ----------------------------------------------------------------------
// The gate DSL.
// ----------------------------------------------------------------------

/// Parses a finite `f64`. `nan`, `inf` and literals that overflow to
/// infinity (`1e999`) are refused like any other non-number: no gate
/// angle or amplitude means anything at those values.
fn parse_finite(token: &str) -> Option<f64> {
    token.parse::<f64>().ok().filter(|x| x.is_finite())
}

/// One validated gate statement: the gate plus the highest wire it names.
struct ParsedGate {
    gate: Gate,
    max_wire: u32,
}

/// Parses a single gate statement (already split on `;`/newlines).
fn parse_statement(stmt: &str) -> Result<ParsedGate, ParseErrorKind> {
    let mut parts = stmt.split_whitespace();
    let name = parts.next().expect("caller skips blank statements");
    let args: Vec<&str> = parts.collect();

    let wire = |i: usize| -> Result<u32, ParseErrorKind> {
        let token = args.get(i).ok_or(ParseErrorKind::MissingArgument {
            gate: name.to_string(),
            index: i,
        })?;
        token.parse::<u32>().map_err(|_| ParseErrorKind::BadWire {
            gate: name.to_string(),
            token: (*token).to_string(),
        })
    };
    let angle = |i: usize| -> Result<f64, ParseErrorKind> {
        let token = args.get(i).ok_or(ParseErrorKind::MissingArgument {
            gate: name.to_string(),
            index: i,
        })?;
        parse_finite(token).ok_or_else(|| ParseErrorKind::BadAngle {
            gate: name.to_string(),
            token: (*token).to_string(),
        })
    };
    let distinct = |wires: &[u32]| -> Result<(), ParseErrorKind> {
        for (i, &w) in wires.iter().enumerate() {
            if wires[..i].contains(&w) {
                return Err(ParseErrorKind::DuplicateWire {
                    gate: name.to_string(),
                    wire: w,
                });
            }
        }
        Ok(())
    };
    let arity = |n: usize| -> Result<(), ParseErrorKind> {
        match args.get(n) {
            Some(extra) => Err(ParseErrorKind::TrailingArgument {
                gate: name.to_string(),
                token: (*extra).to_string(),
            }),
            None => Ok(()),
        }
    };

    let single = |kind: GateKind| -> Result<(Gate, u32), ParseErrorKind> {
        let q = wire(0)?;
        arity(1)?;
        Ok((Gate::single(kind, q), q))
    };
    let rotation = |kind: fn(f64) -> GateKind| -> Result<(Gate, u32), ParseErrorKind> {
        let q = wire(0)?;
        let theta = angle(1)?;
        arity(2)?;
        Ok((Gate::single(kind(theta), q), q))
    };

    let (gate, max_wire) = match name {
        "i" => single(GateKind::I)?,
        "h" => single(GateKind::H)?,
        "x" => single(GateKind::X)?,
        "y" => single(GateKind::Y)?,
        "z" => single(GateKind::Z)?,
        "s" => single(GateKind::S)?,
        "sdg" => single(GateKind::Sdg)?,
        "t" => single(GateKind::T)?,
        "tdg" => single(GateKind::Tdg)?,
        "phase" => rotation(GateKind::Phase)?,
        "rx" => rotation(GateKind::Rx)?,
        "ry" => rotation(GateKind::Ry)?,
        "rz" => rotation(GateKind::Rz)?,
        "cx" | "cz" => {
            let (c, t) = (wire(0)?, wire(1)?);
            arity(2)?;
            distinct(&[c, t])?;
            let gate = if name == "cx" {
                Gate::cx(c, t)
            } else {
                Gate::cz(c, t)
            };
            (gate, c.max(t))
        }
        "cp" => {
            let (c, t) = (wire(0)?, wire(1)?);
            let theta = angle(2)?;
            arity(3)?;
            distinct(&[c, t])?;
            (Gate::cp(c, t, theta), c.max(t))
        }
        "ccx" => {
            let (c1, c2, t) = (wire(0)?, wire(1)?, wire(2)?);
            arity(3)?;
            distinct(&[c1, c2, t])?;
            (Gate::ccx(c1, c2, t), c1.max(c2).max(t))
        }
        "swap" => {
            let (a, b) = (wire(0)?, wire(1)?);
            arity(2)?;
            distinct(&[a, b])?;
            (Gate::swap(a, b), a.max(b))
        }
        "proj" => {
            let q = wire(0)?;
            let b = wire(1)?;
            arity(2)?;
            if b > 1 {
                return Err(ParseErrorKind::BadBasisBit {
                    gate: name.to_string(),
                    bit: b,
                });
            }
            (Gate::projector(q, b == 1), q)
        }
        other => {
            return Err(ParseErrorKind::UnknownGate {
                name: other.to_string(),
            })
        }
    };
    Ok(ParsedGate { gate, max_wire })
}

/// Parses `;`/newline-separated gate statements, with no register bound.
fn parse_statements(text: &str) -> Result<Vec<ParsedGate>, ParseError> {
    let mut gates = Vec::new();
    for stmt in text.split([';', '\n']) {
        if stmt.trim().is_empty() {
            continue;
        }
        gates.push(parse_statement(stmt).map_err(ParseError::inline)?);
    }
    Ok(gates)
}

/// Parses the gate DSL into a [`Circuit`] whose register is one past the
/// highest wire mentioned. Empty input is [`ParseErrorKind::EmptyCircuit`].
pub fn parse_circuit(text: &str) -> Result<Circuit, ParseError> {
    let gates = parse_statements(text)?;
    let width = gates.iter().map(|g| g.max_wire).max().map(|w| w + 1);
    let width = width.ok_or_else(|| ParseError::inline(ParseErrorKind::EmptyCircuit))?;
    let mut circuit = Circuit::new(width);
    for g in gates {
        circuit.push(g.gate);
    }
    Ok(circuit)
}

/// Parses the gate DSL onto an explicit `width`-qubit register; a wire at
/// or past `width` is [`ParseErrorKind::WireOutOfRange`].
pub fn parse_circuit_onto(text: &str, width: u32) -> Result<Circuit, ParseError> {
    let gates = parse_statements(text)?;
    if gates.is_empty() {
        return Err(ParseError::inline(ParseErrorKind::EmptyCircuit));
    }
    let mut circuit = Circuit::new(width);
    for g in gates {
        if g.max_wire >= width {
            return Err(ParseError::inline(ParseErrorKind::WireOutOfRange {
                wire: g.max_wire,
                width,
            }));
        }
        circuit.push(g.gate);
    }
    Ok(circuit)
}

/// Parses two circuits onto one shared register — the wider of the two —
/// so an equivalence query like `"h 0"` vs `"h 0; z 1"` compares the
/// operators on the register the user clearly meant, instead of failing
/// with a width mismatch.
pub fn parse_circuit_pair(a: &str, b: &str) -> Result<(Circuit, Circuit), ParseError> {
    let ga = parse_statements(a)?;
    let gb = parse_statements(b)?;
    let widest = ga
        .iter()
        .chain(gb.iter())
        .map(|g| g.max_wire)
        .max()
        .map(|w| w + 1);
    let width = widest.ok_or_else(|| ParseError::inline(ParseErrorKind::EmptyCircuit))?;
    if ga.is_empty() || gb.is_empty() {
        return Err(ParseError::inline(ParseErrorKind::EmptyCircuit));
    }
    let build = |gates: Vec<ParsedGate>| {
        let mut c = Circuit::new(width);
        for g in gates {
            c.push(g.gate);
        }
        c
    };
    Ok((build(ga), build(gb)))
}

// ----------------------------------------------------------------------
// Scenarios.
// ----------------------------------------------------------------------

/// A property declaration of a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub enum Property {
    /// `reach <k>`: compute the reachable subspace with iteration bound
    /// `k` and report its dimension and convergence.
    Reachability {
        /// Iteration bound.
        max_iterations: usize,
    },
    /// `invariant <k> { ... }`: does every reachable state stay inside
    /// the subspace spanned by these product states?
    Invariant {
        /// Product states spanning the invariant, one `(alpha, beta)`
        /// pair per qubit per state.
        states: Vec<Vec<(Cplx, Cplx)>>,
        /// Iteration bound of the underlying reachability run.
        max_iterations: usize,
    },
    /// `equivalent <a> <b> [up_to_phase]`: do two named circuits (or
    /// channel-free ops) implement the same operator?
    Equivalence {
        /// First circuit/op name.
        a: String,
        /// Second circuit/op name.
        b: String,
        /// Compare up to global phase.
        up_to_phase: bool,
    },
}

/// A parsed scenario: a full [`QtsSpec`]'s worth of system, named pure
/// circuits for equivalence queries, and the declared properties.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display name (`scenario <name>`, or `"scenario"` if omitted).
    pub name: String,
    /// Register width.
    pub n_qubits: u32,
    /// The transition operations, in declaration order.
    pub operations: Vec<Operation>,
    /// Named pure circuits (`circuit <name> { ... }`), all on the
    /// scenario register.
    pub circuits: Vec<(String, Circuit)>,
    /// Initial product states (`init` lines).
    pub initial_states: Vec<Vec<(Cplx, Cplx)>>,
    /// The properties to check, in declaration order.
    pub properties: Vec<Property>,
}

impl Scenario {
    /// The transition system this scenario declares.
    pub fn to_spec(&self) -> QtsSpec {
        QtsSpec {
            name: self.name.clone(),
            n_qubits: self.n_qubits,
            operations: self.operations.clone(),
            initial_states: self.initial_states.clone(),
        }
    }

    /// Resolves a name from an `equivalent` property to a circuit on the
    /// scenario register: named circuits first, then channel-free ops
    /// (projector elements expand to projector gates).
    pub fn circuit(&self, name: &str) -> Result<Circuit, ParseError> {
        if let Some((_, c)) = self.circuits.iter().find(|(n, _)| n == name) {
            return Ok(c.clone());
        }
        let Some(op) = self.operations.iter().find(|o| o.label() == name) else {
            return Err(ParseError::inline(ParseErrorKind::UnknownOp {
                name: name.to_string(),
            }));
        };
        if op.branch_count() != 1 {
            return Err(ParseError::inline(ParseErrorKind::NotACircuit {
                op: name.to_string(),
            }));
        }
        Ok(op.kraus_branches().remove(0))
    }
}

/// Parses a channel declaration body (`<kind> <q> <p>`) into an element.
fn parse_channel(args: &[&str], width: u32) -> Result<Element, ParseErrorKind> {
    let [kind, q, p] = args else {
        return Err(ParseErrorKind::Syntax {
            detail: format!(
                "'channel' takes <kind> <qubit> <p>, got {} argument(s)",
                args.len()
            ),
        });
    };
    let qubit: u32 = q.parse().map_err(|_| ParseErrorKind::BadWire {
        gate: "channel".to_string(),
        token: (*q).to_string(),
    })?;
    if qubit >= width {
        return Err(ParseErrorKind::WireOutOfRange { wire: qubit, width });
    }
    let p: f64 = p.parse().map_err(|_| ParseErrorKind::BadNumber {
        what: "channel probability",
        token: (*p).to_string(),
    })?;
    if !(0.0..=1.0).contains(&p) {
        return Err(ParseErrorKind::BadProbability {
            channel: (*kind).to_string(),
            p,
        });
    }
    match *kind {
        "bitflip" => Ok(generators::bit_flip_channel(qubit, p)),
        "phaseflip" => Ok(generators::phase_flip_channel(qubit, p)),
        "depolarize" => Ok(generators::depolarizing_channel(qubit, p)),
        other => Err(ParseErrorKind::UnknownChannel {
            name: other.to_string(),
        }),
    }
}

/// Parses a projection declaration body (`<q>:<b> ...`) into an element.
fn parse_project(args: &[&str], width: u32) -> Result<Element, ParseErrorKind> {
    if args.is_empty() {
        return Err(ParseErrorKind::Syntax {
            detail: "'project' takes at least one <qubit>:<bit> pair".to_string(),
        });
    }
    let mut qubits = Vec::with_capacity(args.len());
    let mut bits = Vec::with_capacity(args.len());
    for pair in args {
        let parsed = pair.split_once(':').and_then(|(q, b)| {
            let q: u32 = q.parse().ok()?;
            let b: u32 = b.parse().ok()?;
            (b <= 1).then_some((q, b == 1))
        });
        let Some((q, b)) = parsed else {
            return Err(ParseErrorKind::Syntax {
                detail: format!("bad projection '{pair}' (expected <qubit>:<0|1>)"),
            });
        };
        if q >= width {
            return Err(ParseErrorKind::WireOutOfRange { wire: q, width });
        }
        if qubits.contains(&q) {
            return Err(ParseErrorKind::DuplicateWire {
                gate: "project".to_string(),
                wire: q,
            });
        }
        qubits.push(q);
        bits.push(b);
    }
    Ok(Element::Projector { qubits, bits })
}

/// Parses one product-state token: `0`, `1`, `+`, `-`, or
/// `(re,im;re,im)`.
fn parse_state_token(token: &str) -> Result<(Cplx, Cplx), ParseErrorKind> {
    match token {
        "0" => return Ok(states::ZERO),
        "1" => return Ok(states::ONE),
        "+" => return Ok(states::PLUS),
        "-" => return Ok(states::MINUS),
        _ => {}
    }
    let bad = || ParseErrorKind::BadStateToken {
        token: token.to_string(),
    };
    let inner = token
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .ok_or_else(bad)?;
    let (alpha, beta) = inner.split_once(';').ok_or_else(bad)?;
    let amp = |s: &str| -> Result<Cplx, ParseErrorKind> {
        let (re, im) = s.split_once(',').ok_or_else(bad)?;
        let re = parse_finite(re.trim()).ok_or_else(bad)?;
        let im = parse_finite(im.trim()).ok_or_else(bad)?;
        Ok(Cplx::new(re, im))
    };
    Ok((amp(alpha)?, amp(beta)?))
}

/// Parses a whitespace-separated product state of exactly `width` tokens.
fn parse_state(tokens: &[&str], width: u32) -> Result<Vec<(Cplx, Cplx)>, ParseErrorKind> {
    if tokens.len() != width as usize {
        return Err(ParseErrorKind::StateWidth {
            got: tokens.len(),
            want: width,
        });
    }
    tokens.iter().map(|t| parse_state_token(t)).collect()
}

/// A declaration name: one token, no comment or block characters.
fn parse_decl_name(token: &str) -> Result<String, ParseErrorKind> {
    if token.is_empty() || token.contains(['{', '}', '#']) || token.contains(char::is_whitespace) {
        return Err(ParseErrorKind::Syntax {
            detail: format!("bad declaration name '{token}'"),
        });
    }
    Ok(token.to_string())
}

/// Parses a scenario file. Every failure is a typed [`ParseError`]
/// positioned on its source line.
pub fn parse_scenario(text: &str) -> Result<Scenario, ParseError> {
    let mut name: Option<String> = None;
    let mut n_qubits: Option<u32> = None;
    let mut operations: Vec<Operation> = Vec::new();
    let mut circuits: Vec<(String, Circuit)> = Vec::new();
    let mut initial_states: Vec<Vec<(Cplx, Cplx)>> = Vec::new();
    let mut properties: Vec<(usize, Property)> = Vec::new();

    let mut lines = text.lines().enumerate().map(|(i, l)| {
        // 1-based lines; comments stripped before tokenising.
        (i + 1, l.split('#').next().unwrap_or("").trim())
    });

    // Collects the lines of a `{ ... }` block opened on `open_line`.
    let collect_block = |lines: &mut dyn Iterator<Item = (usize, &str)>,
                         open_line: usize,
                         what: &str|
     -> Result<Vec<(usize, String)>, ParseError> {
        let mut body = Vec::new();
        for (ln, line) in &mut *lines {
            if line == "}" {
                return Ok(body);
            }
            if !line.is_empty() {
                body.push((ln, line.to_string()));
            }
        }
        Err(ParseError::at(
            open_line,
            ParseErrorKind::Syntax {
                detail: format!("unterminated '{what}' block (missing closing '}}')"),
            },
        ))
    };

    let taken = |name: &str, ops: &[Operation], circs: &[(String, Circuit)]| {
        ops.iter().any(|o| o.label() == name) || circs.iter().any(|(n, _)| n == name)
    };

    while let Some((ln, line)) = lines.next() {
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let head = tokens.next().expect("non-empty line has a first token");
        let rest: Vec<&str> = tokens.collect();
        match head {
            "scenario" => {
                let n = line["scenario".len()..].trim();
                if n.is_empty() {
                    return Err(ParseError::at(
                        ln,
                        ParseErrorKind::Syntax {
                            detail: "'scenario' needs a name".to_string(),
                        },
                    ));
                }
                name = Some(n.to_string());
            }
            "qubits" => {
                let [tok] = rest.as_slice() else {
                    return Err(ParseError::at(
                        ln,
                        ParseErrorKind::Syntax {
                            detail: "'qubits' takes exactly one count".to_string(),
                        },
                    ));
                };
                let n: u32 = tok.parse().map_err(|_| {
                    ParseError::at(
                        ln,
                        ParseErrorKind::BadNumber {
                            what: "qubit count",
                            token: (*tok).to_string(),
                        },
                    )
                })?;
                // A diagram variable encodes its qubit in 16 bits.
                if n == 0 || n > Var::MAX_POS {
                    return Err(ParseError::at(
                        ln,
                        ParseErrorKind::BadNumber {
                            what: "qubit count",
                            token: (*tok).to_string(),
                        },
                    ));
                }
                n_qubits = Some(n);
            }
            "op" | "circuit" => {
                let width =
                    n_qubits.ok_or_else(|| ParseError::at(ln, ParseErrorKind::MissingQubits))?;
                let bad_header = || {
                    ParseError::at(
                        ln,
                        ParseErrorKind::Syntax {
                            detail: format!("expected '{head} <name> {{'"),
                        },
                    )
                };
                let brace = line.find('{').ok_or_else(bad_header)?;
                let decl_name = parse_decl_name(line[head.len()..brace].trim())
                    .map_err(|k| ParseError::at(ln, k))?;
                if taken(&decl_name, &operations, &circuits) {
                    return Err(ParseError::at(
                        ln,
                        ParseErrorKind::DuplicateOp { name: decl_name },
                    ));
                }
                // Block body: either inline (`op a { h 0 }`) or the lines
                // up to a closing `}` on its own line.
                let after = line[brace + 1..].trim();
                let body: Vec<(usize, String)> = if after.is_empty() {
                    collect_block(&mut lines, ln, head)?
                } else {
                    let inner = after.strip_suffix('}').ok_or_else(bad_header)?.trim();
                    if inner.is_empty() {
                        Vec::new()
                    } else {
                        vec![(ln, inner.to_string())]
                    }
                };
                if head == "op" {
                    let mut op = Operation::new(decl_name, width);
                    for (bln, bline) in &body {
                        let mut btokens = bline.split_whitespace();
                        let bhead = btokens.next().expect("block keeps non-empty lines");
                        let bargs: Vec<&str> = btokens.collect();
                        let element =
                            match bhead {
                                "channel" => parse_channel(&bargs, width)
                                    .map_err(|k| ParseError::at(*bln, k))?,
                                "project" => parse_project(&bargs, width)
                                    .map_err(|k| ParseError::at(*bln, k))?,
                                _ => {
                                    for g in parse_statements(bline)
                                        .map_err(|e| ParseError::at(*bln, e.kind))?
                                    {
                                        if g.max_wire >= width {
                                            return Err(ParseError::at(
                                                *bln,
                                                ParseErrorKind::WireOutOfRange {
                                                    wire: g.max_wire,
                                                    width,
                                                },
                                            ));
                                        }
                                        op = op.then_gate(g.gate);
                                    }
                                    continue;
                                }
                            };
                        op = op.then(element);
                    }
                    if op.elements().is_empty() {
                        return Err(ParseError::at(
                            ln,
                            ParseErrorKind::Syntax {
                                detail: format!("op '{}' declares no elements", op.label()),
                            },
                        ));
                    }
                    operations.push(op);
                } else {
                    let mut circuit = Circuit::new(width);
                    let mut empty = true;
                    for (bln, bline) in &body {
                        for g in
                            parse_statements(bline).map_err(|e| ParseError::at(*bln, e.kind))?
                        {
                            if g.max_wire >= width {
                                return Err(ParseError::at(
                                    *bln,
                                    ParseErrorKind::WireOutOfRange {
                                        wire: g.max_wire,
                                        width,
                                    },
                                ));
                            }
                            circuit.push(g.gate);
                            empty = false;
                        }
                    }
                    if empty {
                        return Err(ParseError::at(ln, ParseErrorKind::EmptyCircuit));
                    }
                    circuits.push((decl_name, circuit));
                }
            }
            "init" => {
                let width =
                    n_qubits.ok_or_else(|| ParseError::at(ln, ParseErrorKind::MissingQubits))?;
                let state = parse_state(&rest, width).map_err(|k| ParseError::at(ln, k))?;
                initial_states.push(state);
            }
            "reach" => {
                let [tok] = rest.as_slice() else {
                    return Err(ParseError::at(
                        ln,
                        ParseErrorKind::Syntax {
                            detail: "'reach' takes exactly one iteration bound".to_string(),
                        },
                    ));
                };
                let max_iterations: usize = tok.parse().map_err(|_| {
                    ParseError::at(
                        ln,
                        ParseErrorKind::BadNumber {
                            what: "iteration bound",
                            token: (*tok).to_string(),
                        },
                    )
                })?;
                properties.push((ln, Property::Reachability { max_iterations }));
            }
            "invariant" => {
                let width =
                    n_qubits.ok_or_else(|| ParseError::at(ln, ParseErrorKind::MissingQubits))?;
                let [tok, "{"] = rest.as_slice() else {
                    return Err(ParseError::at(
                        ln,
                        ParseErrorKind::Syntax {
                            detail: "expected 'invariant <k> {'".to_string(),
                        },
                    ));
                };
                let max_iterations: usize = tok.parse().map_err(|_| {
                    ParseError::at(
                        ln,
                        ParseErrorKind::BadNumber {
                            what: "iteration bound",
                            token: (*tok).to_string(),
                        },
                    )
                })?;
                let body = collect_block(&mut lines, ln, "invariant")?;
                let mut invariant_states = Vec::with_capacity(body.len());
                for (bln, bline) in &body {
                    let tokens: Vec<&str> = bline.split_whitespace().collect();
                    invariant_states
                        .push(parse_state(&tokens, width).map_err(|k| ParseError::at(*bln, k))?);
                }
                if invariant_states.is_empty() {
                    return Err(ParseError::at(
                        ln,
                        ParseErrorKind::Syntax {
                            detail: "'invariant' block declares no states".to_string(),
                        },
                    ));
                }
                properties.push((
                    ln,
                    Property::Invariant {
                        states: invariant_states,
                        max_iterations,
                    },
                ));
            }
            "equivalent" => {
                let (a, b, up_to_phase) = match rest.as_slice() {
                    [a, b] => (a, b, false),
                    [a, b, "up_to_phase"] => (a, b, true),
                    _ => {
                        return Err(ParseError::at(
                            ln,
                            ParseErrorKind::Syntax {
                                detail: "expected 'equivalent <a> <b> [up_to_phase]'".to_string(),
                            },
                        ))
                    }
                };
                properties.push((
                    ln,
                    Property::Equivalence {
                        a: (*a).to_string(),
                        b: (*b).to_string(),
                        up_to_phase,
                    },
                ));
            }
            other => {
                return Err(ParseError::at(
                    ln,
                    ParseErrorKind::Syntax {
                        detail: format!("unknown directive '{other}'"),
                    },
                ))
            }
        }
    }

    let n_qubits = n_qubits.ok_or_else(|| ParseError::at(0, ParseErrorKind::MissingQubits))?;
    let missing = |what: &str| {
        ParseError::at(
            0,
            ParseErrorKind::Syntax {
                detail: format!("scenario declares no {what}"),
            },
        )
    };
    if operations.is_empty() {
        return Err(missing("op"));
    }
    if initial_states.is_empty() {
        return Err(missing("init state"));
    }

    let scenario = Scenario {
        name: name.unwrap_or_else(|| "scenario".to_string()),
        n_qubits,
        operations,
        circuits,
        initial_states,
        properties: properties.iter().map(|(_, p)| p.clone()).collect(),
    };
    // Equivalence references must resolve to pure circuits; checking here
    // positions the error on the property's line instead of at run time.
    for (ln, p) in &properties {
        if let Property::Equivalence { a, b, .. } = p {
            for side in [a, b] {
                scenario
                    .circuit(side)
                    .map_err(|e| ParseError::at(*ln, e.kind))?;
            }
        }
    }
    Ok(scenario)
}

// ----------------------------------------------------------------------
// Rendering (spec -> scenario text).
// ----------------------------------------------------------------------

/// The DSL spelling of a gate, if it has one.
fn gate_statement(g: &Gate) -> Result<String, ParseErrorKind> {
    let unrenderable = || ParseErrorKind::Unrenderable {
        detail: format!("gate {g}"),
    };
    if g.controls.iter().any(|c: &Control| !c.value) {
        return Err(unrenderable());
    }
    let controls: Vec<u32> = g.controls.iter().map(|c| c.qubit).collect();
    match (&g.kind, controls.as_slice()) {
        (GateKind::I, []) => Ok(format!("i {}", g.targets[0])),
        (GateKind::H, []) => Ok(format!("h {}", g.targets[0])),
        (GateKind::X, []) => Ok(format!("x {}", g.targets[0])),
        (GateKind::Y, []) => Ok(format!("y {}", g.targets[0])),
        (GateKind::Z, []) => Ok(format!("z {}", g.targets[0])),
        (GateKind::S, []) => Ok(format!("s {}", g.targets[0])),
        (GateKind::Sdg, []) => Ok(format!("sdg {}", g.targets[0])),
        (GateKind::T, []) => Ok(format!("t {}", g.targets[0])),
        (GateKind::Tdg, []) => Ok(format!("tdg {}", g.targets[0])),
        (GateKind::Phase(theta), []) => Ok(format!("phase {} {theta}", g.targets[0])),
        (GateKind::Rx(theta), []) => Ok(format!("rx {} {theta}", g.targets[0])),
        (GateKind::Ry(theta), []) => Ok(format!("ry {} {theta}", g.targets[0])),
        (GateKind::Rz(theta), []) => Ok(format!("rz {} {theta}", g.targets[0])),
        (GateKind::Swap, []) => Ok(format!("swap {} {}", g.targets[0], g.targets[1])),
        (GateKind::X, [c]) => Ok(format!("cx {c} {}", g.targets[0])),
        (GateKind::Z, [c]) => Ok(format!("cz {c} {}", g.targets[0])),
        (GateKind::Phase(theta), [c]) => Ok(format!("cp {c} {} {theta}", g.targets[0])),
        (GateKind::X, [c1, c2]) => Ok(format!("ccx {c1} {c2} {}", g.targets[0])),
        (GateKind::Custom1(m), []) => {
            // Recognise the two projector matrices `proj` produces.
            for (b, gate) in [
                (false, Gate::projector(0, false)),
                (true, Gate::projector(0, true)),
            ] {
                if let GateKind::Custom1(p) = &gate.kind {
                    if m == p {
                        return Ok(format!("proj {} {}", g.targets[0], u8::from(b)));
                    }
                }
            }
            Err(unrenderable())
        }
        _ => Err(unrenderable()),
    }
}

/// The `channel` spelling of a Kraus element, recognised by the canonical
/// labels the [`generators`] channel constructors stamp.
fn channel_statement(
    qubit: u32,
    kraus: &[qits_num::Mat],
    label: &str,
) -> Result<String, ParseErrorKind> {
    let unrenderable = || ParseErrorKind::Unrenderable {
        detail: format!("channel '{label}'"),
    };
    for (dsl_name, label_prefix, make) in [
        (
            "bitflip",
            "bit-flip(",
            generators::bit_flip_channel as fn(u32, f64) -> Element,
        ),
        ("phaseflip", "phase-flip(", generators::phase_flip_channel),
        (
            "depolarize",
            "depolarize(",
            generators::depolarizing_channel,
        ),
    ] {
        let Some(p) = label
            .strip_prefix(label_prefix)
            .and_then(|r| r.strip_suffix(')'))
            .and_then(|p| p.parse::<f64>().ok())
        else {
            continue;
        };
        // The label names the channel; verify the Kraus family actually
        // is that channel before claiming so in the output.
        let Element::Channel {
            kraus: canonical, ..
        } = make(qubit, p)
        else {
            unreachable!("channel constructors build channels")
        };
        if canonical.len() == kraus.len()
            && canonical.iter().zip(kraus).all(|(a, b)| a.approx_eq(b))
        {
            return Ok(format!("channel {dsl_name} {qubit} {p}"));
        }
        return Err(unrenderable());
    }
    Err(unrenderable())
}

/// The token spelling of one qubit's `(alpha, beta)` amplitudes.
fn state_token(amp: &(Cplx, Cplx)) -> String {
    if *amp == states::ZERO {
        "0".to_string()
    } else if *amp == states::ONE {
        "1".to_string()
    } else if *amp == states::PLUS {
        "+".to_string()
    } else if *amp == states::MINUS {
        "-".to_string()
    } else {
        format!("({},{};{},{})", amp.0.re, amp.0.im, amp.1.re, amp.1.im)
    }
}

fn render_state_line(out: &mut String, indent: &str, state: &[(Cplx, Cplx)]) {
    out.push_str(indent);
    for (i, amp) in state.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&state_token(amp));
    }
    out.push('\n');
}

/// Renders a [`QtsSpec`] (plus named circuits and properties) as scenario
/// text that [`parse_scenario`] accepts — the round trip behind
/// `qits export`. Fails with [`ParseErrorKind::Unrenderable`] when the
/// spec uses constructs outside the DSL (multi-controlled gates beyond
/// Toffoli, custom matrices, non-canonical channels).
pub fn render_scenario(
    spec: &QtsSpec,
    circuits: &[(String, Circuit)],
    properties: &[Property],
) -> Result<String, ParseError> {
    let err = |kind: ParseErrorKind| ParseError::inline(kind);
    let check_name = |n: &str| -> Result<(), ParseError> {
        if n.split_whitespace().count() != 1 || n.contains(['{', '}', '#']) {
            return Err(err(ParseErrorKind::Unrenderable {
                detail: format!("declaration name '{n}'"),
            }));
        }
        Ok(())
    };

    let mut out = String::new();
    out.push_str(&format!("scenario {}\n", spec.name.trim()));
    out.push_str(&format!("qubits {}\n", spec.n_qubits));
    for op in &spec.operations {
        check_name(op.label())?;
        out.push_str(&format!("\nop {} {{\n", op.label()));
        for e in op.elements() {
            match e {
                Element::Gate(g) => {
                    out.push_str("  ");
                    out.push_str(&gate_statement(g).map_err(err)?);
                    out.push('\n');
                }
                Element::Projector { qubits, bits } => {
                    out.push_str("  project");
                    for (q, b) in qubits.iter().zip(bits) {
                        out.push_str(&format!(" {q}:{}", u8::from(*b)));
                    }
                    out.push('\n');
                }
                Element::Channel {
                    qubit,
                    kraus,
                    label,
                } => {
                    out.push_str("  ");
                    out.push_str(&channel_statement(*qubit, kraus, label).map_err(err)?);
                    out.push('\n');
                }
            }
        }
        out.push_str("}\n");
    }
    for (cname, circuit) in circuits {
        check_name(cname)?;
        if circuit.n_qubits() != spec.n_qubits {
            return Err(err(ParseErrorKind::Unrenderable {
                detail: format!(
                    "circuit '{cname}' is on {} qubits, the scenario register has {}",
                    circuit.n_qubits(),
                    spec.n_qubits
                ),
            }));
        }
        out.push_str(&format!("\ncircuit {cname} {{\n"));
        for g in circuit.gates() {
            out.push_str("  ");
            out.push_str(&gate_statement(g).map_err(err)?);
            out.push('\n');
        }
        out.push_str("}\n");
    }
    out.push('\n');
    for state in &spec.initial_states {
        out.push_str("init");
        for amp in state {
            out.push(' ');
            out.push_str(&state_token(amp));
        }
        out.push('\n');
    }
    for p in properties {
        match p {
            Property::Reachability { max_iterations } => {
                out.push_str(&format!("\nreach {max_iterations}\n"));
            }
            Property::Invariant {
                states,
                max_iterations,
            } => {
                out.push_str(&format!("\ninvariant {max_iterations} {{\n"));
                for state in states {
                    render_state_line(&mut out, "  ", state);
                }
                out.push_str("}\n");
            }
            Property::Equivalence { a, b, up_to_phase } => {
                check_name(a)?;
                check_name(b)?;
                out.push_str(&format!(
                    "\nequivalent {a} {b}{}\n",
                    if *up_to_phase { " up_to_phase" } else { "" }
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;

    #[test]
    fn dsl_builds_real_circuits() {
        let c = parse_circuit("h 0; cx 0 1; phase 1 0.25").unwrap();
        assert_eq!(c.n_qubits(), 2);
        assert_eq!(c.gates().len(), 3);
        let c = parse_circuit("s 0\ntdg 1; rx 2 0.5; ry 0 1.0; rz 1 -0.5; i 2").unwrap();
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.gates().len(), 6);
    }

    #[test]
    fn duplicate_wires_are_typed_errors_not_panics() {
        // The exact inputs that used to unwind through Gate::new's
        // distinctness assertion — one regression per multi-wire gate.
        for text in [
            "cx 0 0",
            "cz 1 1",
            "swap 2 2",
            "ccx 0 1 0",
            "ccx 0 0 1",
            "cp 3 3 0.5",
        ] {
            let err = parse_circuit(text).unwrap_err();
            assert!(
                matches!(err.kind, ParseErrorKind::DuplicateWire { .. }),
                "{text}: {err:?}"
            );
        }
    }

    #[test]
    fn dsl_arity_and_token_errors() {
        assert!(matches!(
            parse_circuit("bogus 0").unwrap_err().kind,
            ParseErrorKind::UnknownGate { .. }
        ));
        assert!(matches!(
            parse_circuit("cx 0").unwrap_err().kind,
            ParseErrorKind::MissingArgument { .. }
        ));
        assert!(matches!(
            parse_circuit("h 0 1").unwrap_err().kind,
            ParseErrorKind::TrailingArgument { .. }
        ));
        assert!(matches!(
            parse_circuit("h x").unwrap_err().kind,
            ParseErrorKind::BadWire { .. }
        ));
        assert!(matches!(
            parse_circuit("phase 0 nope").unwrap_err().kind,
            ParseErrorKind::BadAngle { .. }
        ));
        assert!(matches!(
            parse_circuit("proj 0 2").unwrap_err().kind,
            ParseErrorKind::BadBasisBit { .. }
        ));
        assert!(matches!(
            parse_circuit("").unwrap_err().kind,
            ParseErrorKind::EmptyCircuit
        ));
    }

    #[test]
    fn non_finite_angles_are_refused() {
        for text in [
            "rz 0 NaN",
            "rz 0 nan",
            "rz 0 1e999",
            "rx 0 -1e999",
            "phase 0 inf",
            "ry 0 -infinity",
            "cp 0 1 inf",
        ] {
            let err = parse_circuit(text).unwrap_err();
            assert!(
                matches!(err.kind, ParseErrorKind::BadAngle { .. }),
                "{text}: {err:?}"
            );
        }
        // Inside a scenario the refusal is positioned on its line.
        let err = parse_scenario("qubits 1\nop bad {\n  rz 0 nan\n}\ninit 0").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(matches!(err.kind, ParseErrorKind::BadAngle { .. }));
        assert!(err.to_string().contains("bad angle"), "{err}");
        // Large but finite angles still parse.
        assert!(parse_circuit("rz 0 1e300; cp 0 1 -1e300").is_ok());
    }

    #[test]
    fn a_register_wider_than_a_variable_can_address_is_refused() {
        let err = parse_scenario("scenario wide\nqubits 70000\ninit 0").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(
            err.kind,
            ParseErrorKind::BadNumber {
                what: "qubit count",
                ..
            }
        ));
        assert!(err.to_string().contains("bad qubit count '70000'"), "{err}");
        let widest = parse_scenario("qubits 65536\ninit 0").unwrap_err();
        assert!(
            !matches!(widest.kind, ParseErrorKind::BadNumber { .. }),
            "65536 qubits is the widest register: {widest:?}"
        );
    }

    #[test]
    fn non_finite_amplitudes_are_refused() {
        for tok in [
            "(nan,0;1,0)",
            "(1,NaN;0,0)",
            "(inf,0;1,0)",
            "(1,0;-inf,0)",
            "(1e999,0;1,0)",
        ] {
            assert!(
                matches!(
                    parse_state_token(tok),
                    Err(ParseErrorKind::BadStateToken { .. })
                ),
                "{tok}"
            );
        }
        let init = "qubits 1\nop t {\n  h 0\n}\ninit (nan,0;1,0)";
        let err = parse_scenario(init).unwrap_err();
        assert_eq!(err.line, 5);
        assert!(matches!(err.kind, ParseErrorKind::BadStateToken { .. }));
        assert!(err.to_string().contains("bad state token"), "{err}");
        let invariant = "qubits 1\nop t {\n  h 0\n}\ninit 0\ninvariant 4 {\n  (1,0;1e999,0)\n}";
        let err = parse_scenario(invariant).unwrap_err();
        assert_eq!(err.line, 7);
        assert!(matches!(err.kind, ParseErrorKind::BadStateToken { .. }));
        assert!(parse_state_token("(0.6,0;0,-0.8)").is_ok());
    }

    #[test]
    fn explicit_width_bounds_wires() {
        let c = parse_circuit_onto("h 0; cx 0 1", 4).unwrap();
        assert_eq!(c.n_qubits(), 4);
        assert!(matches!(
            parse_circuit_onto("h 5", 4).unwrap_err().kind,
            ParseErrorKind::WireOutOfRange { wire: 5, width: 4 }
        ));
    }

    #[test]
    fn circuit_pair_shares_the_wider_register() {
        let (a, b) = parse_circuit_pair("h 0", "h 0; z 1").unwrap();
        assert_eq!(a.n_qubits(), 2);
        assert_eq!(b.n_qubits(), 2);
        assert!(parse_circuit_pair("h 0", "").is_err());
    }

    #[test]
    fn scenario_parses_system_and_properties() {
        let text = "\
scenario bell pair demo
qubits 2

# prepare a Bell state, then collapse qubit 1
op bell {
  h 0
  cx 0 1
  channel bitflip 1 0.25
  project 1:0
}

circuit cz_a { h 1; cx 0 1; h 1 }
circuit cz_b { cz 0 1 }

init 0 0
init + -

reach 8
invariant 4 {
  0 0
  1 1
}
equivalent cz_a cz_b
equivalent cz_a cz_b up_to_phase
";
        let s = parse_scenario(text).unwrap();
        assert_eq!(s.name, "bell pair demo");
        assert_eq!(s.n_qubits, 2);
        assert_eq!(s.operations.len(), 1);
        assert_eq!(s.operations[0].branch_count(), 2);
        assert_eq!(s.circuits.len(), 2);
        assert_eq!(s.initial_states.len(), 2);
        assert_eq!(s.properties.len(), 4);
        assert_eq!(
            s.properties[0],
            Property::Reachability { max_iterations: 8 }
        );
        let spec = s.to_spec();
        assert_eq!(spec.name, "bell pair demo");
        assert_eq!(spec.operations.len(), 1);
        // The two CZ spellings really are the same operator.
        let a = sim::circuit_matrix(&s.circuit("cz_a").unwrap());
        let b = sim::circuit_matrix(&s.circuit("cz_b").unwrap());
        assert!(a.approx_eq(&b));
    }

    #[test]
    fn scenario_errors_carry_line_numbers() {
        let err = parse_scenario("qubits 2\nop bad {\n  cx 0 0\n}\ninit 0 0").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(matches!(err.kind, ParseErrorKind::DuplicateWire { .. }));

        let err = parse_scenario("qubits 2\nop t1 {\n  h 0\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ParseErrorKind::Syntax { .. }));

        let err = parse_scenario("op early { h 0 }").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MissingQubits));

        let err = parse_scenario("qubits 2\nop t1 {\n  h 5\n}\ninit 0 0").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(matches!(
            err.kind,
            ParseErrorKind::WireOutOfRange { wire: 5, width: 2 }
        ));

        let err =
            parse_scenario("qubits 1\nop t1 {\n  h 0\n}\ninit 0\nequivalent t1 ghost").unwrap_err();
        assert_eq!(err.line, 6);
        assert!(matches!(err.kind, ParseErrorKind::UnknownOp { .. }));
    }

    #[test]
    fn scenario_rejects_noisy_ops_in_equivalence() {
        let text = "\
qubits 1
op noisy {
  h 0
  channel bitflip 0 0.5
}
init 0
equivalent noisy noisy
";
        let err = parse_scenario(text).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::NotACircuit { .. }));
    }

    #[test]
    fn scenario_channel_and_state_validation() {
        let bad_p = "qubits 1\nop t1 {\n  channel bitflip 0 1.5\n}\ninit 0";
        assert!(matches!(
            parse_scenario(bad_p).unwrap_err().kind,
            ParseErrorKind::BadProbability { .. }
        ));
        let bad_ch = "qubits 1\nop t1 {\n  channel gamma 0 0.5\n}\ninit 0";
        assert!(matches!(
            parse_scenario(bad_ch).unwrap_err().kind,
            ParseErrorKind::UnknownChannel { .. }
        ));
        let bad_state = "qubits 2\nop t1 {\n  h 0\n}\ninit 0 2";
        assert!(matches!(
            parse_scenario(bad_state).unwrap_err().kind,
            ParseErrorKind::BadStateToken { .. }
        ));
        let short_state = "qubits 2\nop t1 {\n  h 0\n}\ninit 0";
        assert!(matches!(
            parse_scenario(short_state).unwrap_err().kind,
            ParseErrorKind::StateWidth { got: 1, want: 2 }
        ));
        let dup = "qubits 1\nop t1 {\n  h 0\n}\nop t1 {\n  x 0\n}\ninit 0";
        assert!(matches!(
            parse_scenario(dup).unwrap_err().kind,
            ParseErrorKind::DuplicateOp { .. }
        ));
    }

    #[test]
    fn state_tokens_round_trip() {
        for tok in ["0", "1", "+", "-"] {
            let amp = parse_state_token(tok).unwrap();
            assert_eq!(state_token(&amp), tok);
        }
        let amp = parse_state_token("(0.6,0;0,0.8)").unwrap();
        assert_eq!(amp.0, Cplx::new(0.6, 0.0));
        assert_eq!(amp.1, Cplx::new(0.0, 0.8));
        let rendered = state_token(&amp);
        assert_eq!(parse_state_token(&rendered).unwrap(), amp);
    }

    #[test]
    fn render_round_trips_a_generated_spec() {
        let spec = generators::qrw(3, 0.125);
        let props = vec![
            Property::Reachability { max_iterations: 8 },
            Property::Invariant {
                states: vec![vec![states::ZERO; 3], vec![states::ONE; 3]],
                max_iterations: 4,
            },
        ];
        // QRW's shift uses negative controls — not DSL-expressible.
        assert!(render_scenario(&spec, &[], &props).is_err());

        let spec = generators::ghz(3);
        let text = render_scenario(&spec, &[], &props).unwrap();
        let back = parse_scenario(&text).unwrap();
        assert_eq!(back.name, spec.name);
        assert_eq!(back.n_qubits, spec.n_qubits);
        assert_eq!(back.operations.len(), spec.operations.len());
        assert_eq!(back.initial_states, spec.initial_states);
        assert_eq!(back.properties, props);
        // Same unitary after the round trip.
        let before = sim::circuit_matrix(&spec.operations[0].kraus_branches()[0]);
        let after = sim::circuit_matrix(&back.operations[0].kraus_branches()[0]);
        assert!(before.approx_eq(&after));
    }

    #[test]
    fn render_round_trips_channels_and_projectors() {
        let mut spec = generators::ghz(2);
        spec.operations[0] = Operation::new("noisy", 2)
            .then_gate(Gate::h(0))
            .then(generators::bit_flip_channel(1, 0.125))
            .then(generators::phase_flip_channel(0, 0.25))
            .then(generators::depolarizing_channel(1, 0.0625))
            .then(Element::Projector {
                qubits: vec![0, 1],
                bits: vec![false, true],
            });
        let text = render_scenario(&spec, &[], &[]).unwrap();
        let back = parse_scenario(&text).unwrap();
        assert_eq!(back.operations[0].branch_count(), 2 * 2 * 4);
        assert_eq!(back.operations[0].elements(), spec.operations[0].elements());
    }

    #[test]
    fn no_dsl_or_scenario_input_panics() {
        // A grab-bag of adversarial near-misses: all must be Err, none
        // may panic (the proptest suite generalises this).
        for text in [
            "cx 0 0; h 1",
            "ccx 1 1 1",
            "swap 0 0",
            "h 4294967296",
            "phase 0",
            "proj 0 1 2",
            "h",
            ";;",
            "\u{0}",
            "h -1",
        ] {
            assert!(parse_circuit(text).is_err(), "{text:?}");
        }
        for text in [
            "",
            "qubits",
            "qubits 0",
            "qubits x",
            "op {",
            "qubits 1\nop a {",
            "qubits 1\nop a { }",
            "qubits 1\ninit (",
            "qubits 1\ninit (1,0;0)",
            "qubits 1\nreach",
            "qubits 1\ninvariant 4 {",
            "scenario",
            "}",
        ] {
            assert!(parse_scenario(text).is_err(), "{text:?}");
        }
    }
}
