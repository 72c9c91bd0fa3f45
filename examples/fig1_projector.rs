//! Reproduces Fig. 1 of the paper: the projector matrix `P` of
//! `S = span{|++->, |11->}` and its TDD.
//!
//! Prints the 8x8 matrix (times 6, as typeset in the paper) and emits the
//! TDD as Graphviz DOT. Zero-weight edges are omitted, as in the figure.
//!
//! Run with: `cargo run --example fig1_projector`

use std::collections::BTreeMap;

use qits::Subspace;
use qits_circuit::tensorize::states;
use qits_tdd::TddManager;
use qits_tensor::Var;

fn main() {
    let mut m = TddManager::new();
    let vars = Subspace::ket_vars(3);
    let ppm = m.product_ket(&vars, &[states::PLUS, states::PLUS, states::MINUS]);
    let oom = m.product_ket(&vars, &[states::ONE, states::ONE, states::MINUS]);
    let s = Subspace::from_states(&mut m, 3, &[ppm, oom]);
    let p = s.projector(&mut m);

    println!("P = 1/6 *");
    for row in 0..8usize {
        let mut line = String::from("  ");
        for col in 0..8usize {
            let mut asn = BTreeMap::new();
            for q in 0..3u32 {
                asn.insert(Var::ket(q), (col >> (2 - q)) & 1 == 1);
                asn.insert(Var::row(q), (row >> (2 - q)) & 1 == 1);
            }
            let v = m.eval(p, &asn);
            let six = v.re * 6.0;
            line.push_str(&format!("{:>4}", format!("{:.0}", six)));
        }
        println!("{line}");
    }

    println!("\nTDD node count: {}", m.node_count(p));
    println!("\nGraphviz DOT (interleaved variable order x1<y1<x2<y2<x3<y3):\n");
    println!("{}", m.to_dot(p, "fig1_projector"));
}
