//! # netsolve-pdl
//!
//! The NetSolve problem description language (PDL).
//!
//! NetSolve servers advertise their repertoire through small description
//! files: each problem declares a mnemonic, a human description, typed
//! inputs and outputs, and an `a·n^b` complexity model for the agent's
//! completion-time predictor. This crate provides the full language
//! pipeline —
//!
//! * [`lexer`] — tokenizer with line tracking, comments and string escapes;
//! * [`parser`] — recursive-descent parser producing validated
//!   [`netsolve_core::ProblemSpec`]s, plus [`parser::render`] which turns a
//!   spec back into canonical PDL;
//! * [`catalogue`] — the standard problem set (dense LAPACK-style solvers,
//!   ITPACK-style sparse iterative methods, FFT, quadrature, utility
//!   kernels) *shipped as PDL source* so the language path is exercised for
//!   real;
//! * [`registry`] — the name → spec index used by servers and agents.

#![warn(missing_docs)]

pub mod catalogue;
pub mod lexer;
pub mod parser;
pub mod registry;

pub use catalogue::{standard_catalogue, STANDARD_PDL};
pub use parser::{parse, parse_one, render};
pub use registry::ProblemRegistry;

#[cfg(test)]
mod properties {
    use netsolve_core::data::ObjectKind;
    use netsolve_core::problem::{Complexity, ObjectSpec, ProblemSpec};
    use netsolve_core::rng::{cases, Rng64};

    const KINDS: [ObjectKind; 6] = [
        ObjectKind::IntScalar,
        ObjectKind::DoubleScalar,
        ObjectKind::Vector,
        ObjectKind::Matrix,
        ObjectKind::SparseMatrix,
        ObjectKind::Text,
    ];

    /// Specs named `{prefix}{0..1000}`, sorted and deduplicated by name
    /// (duplicates would fail validation).
    fn arb_objspecs(rng: &mut Rng64, prefix: &str, count: std::ops::Range<usize>) -> Vec<ObjectSpec> {
        let mut specs: Vec<ObjectSpec> = (0..rng.range(count))
            .map(|_| {
                let name = format!("{prefix}{}", rng.below(1000));
                let kind = *rng.choose(&KINDS).unwrap();
                ObjectSpec::new(&name, kind, &rng.string(" !#-~", 0..=40)) // printable ASCII minus '"'
            })
            .collect();
        specs.sort_by(|x, y| x.name.cmp(&y.name));
        specs.dedup_by(|x, y| x.name == y.name);
        specs
    }

    fn arb_spec(rng: &mut Rng64) -> ProblemSpec {
        let name = rng.string("a-z", 1..=1) + &rng.string("a-z0-9_", 0..=15);
        let description = rng.string(" !#-~", 1..=60);
        let (inputs, outputs) = (arb_objspecs(rng, "in", 1..5), arb_objspecs(rng, "out", 0..4));
        let complexity = Complexity::new(rng.uniform(0.001, 1000.0), rng.uniform(0.0, 4.0)).unwrap();
        let major_input = rng.below(inputs.len());
        ProblemSpec { name, description, inputs, outputs, complexity, major_input }
    }

    #[test]
    fn render_parse_roundtrip() {
        cases("render_parse_roundtrip", 64, |rng| {
            let spec = arb_spec(rng);
            assert!(spec.validate().is_ok(), "the generator made an invalid spec: {spec:?}");
            let back = crate::parse_one(&crate::render(&spec)).unwrap();
            assert_eq!(back, spec);
        });
    }

    #[test]
    fn lexer_never_panics() {
        cases("lexer_never_panics", 64, |rng| {
            let _ = crate::lexer::lex(&rng.string(" -~£é÷ßλжᚠ‰→中日🙂", 0..=300));
        });
    }

    #[test]
    fn parser_never_panics() {
        cases("parser_never_panics", 64, |rng| {
            let _ = crate::parse(&rng.string(" -~£é÷ßλжᚠ‰→中日🙂", 0..=300));
        });
    }

    #[test]
    fn parser_never_panics_on_directive_soup() {
        cases("parser_never_panics_on_directive_soup", 64, |rng| {
            let words: Vec<String> = (0..rng.range(0..40))
                .map(|_| match rng.below(5) {
                    0 => format!("@{}", rng.string("A-Z", 1..=10)),
                    1 => rng.string("a-z", 1..=8),
                    2 => format!("\"{}\"", rng.string("a-z ", 0..=10)),
                    3 => rng.string("0-9", 1..=3),
                    _ => ":".to_owned(),
                })
                .collect();
            let _ = crate::parse(&words.join(" "));
        });
    }
}
