//! The problem model: what a NetSolve "problem" is, independent of any
//! particular server implementation.
//!
//! A problem is identified by a mnemonic (`"dgesv"`, `"fft"`, ...), declares
//! typed inputs and outputs, and carries a *complexity expression*
//! `a * n^b` that the agent's load balancer uses to predict execution time
//! on a candidate server.

use crate::data::{DataObject, ObjectKind};
use crate::error::{NetSolveError, Result};

/// Polynomial complexity model `flops(n) = a * n^b`, NetSolve's original
/// two-parameter characterization of a problem's cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Complexity {
    /// Multiplicative constant.
    pub a: f64,
    /// Exponent on the dominant dimension.
    pub b: f64,
}

impl Complexity {
    /// Construct; both parameters must be non-negative and `a` positive.
    pub fn new(a: f64, b: f64) -> Result<Self> {
        // NaN parameters fall to the is_finite arms.
        if a <= 0.0 || b < 0.0 || !a.is_finite() || !b.is_finite() {
            return Err(NetSolveError::Description(format!(
                "invalid complexity a={a}, b={b}"
            )));
        }
        Ok(Complexity { a, b })
    }

    /// Estimated floating-point operations for dominant dimension `n`.
    pub fn flops(&self, n: u64) -> f64 {
        self.a * (n as f64).powf(self.b)
    }

    /// Estimated seconds on a machine delivering `mflops` Mflop/s.
    pub fn seconds_at(&self, n: u64, mflops: f64) -> f64 {
        if mflops <= 0.0 {
            return f64::INFINITY;
        }
        self.flops(n) / (mflops * 1e6)
    }
}

impl std::fmt::Display for Complexity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}*n^{}", self.a, self.b)
    }
}

/// One declared input or output of a problem.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectSpec {
    /// Argument name as it appears in the problem description.
    pub name: String,
    /// Expected kind.
    pub kind: ObjectKind,
    /// Human description shown by `netsolve list`.
    pub description: String,
}

impl ObjectSpec {
    /// Shorthand constructor.
    pub fn new(name: &str, kind: ObjectKind, description: &str) -> Self {
        ObjectSpec {
            name: name.to_string(),
            kind,
            description: description.to_string(),
        }
    }
}

/// Complete description of a problem a server can solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemSpec {
    /// Unique mnemonic, lower-case (e.g. `"dgesv"`).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Declared inputs, in calling order.
    pub inputs: Vec<ObjectSpec>,
    /// Declared outputs, in return order.
    pub outputs: Vec<ObjectSpec>,
    /// Cost model for the load balancer.
    pub complexity: Complexity,
    /// Which input supplies the dominant dimension `n` (index into
    /// `inputs`). NetSolve called this the "major" object.
    pub major_input: usize,
}

impl ProblemSpec {
    /// Validate internal consistency (non-empty name, major index in range,
    /// unique argument names).
    pub fn validate(&self) -> Result<()> {
        if self.name.is_empty() {
            return Err(NetSolveError::Description("empty problem name".into()));
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            return Err(NetSolveError::Description(format!(
                "problem name '{}' must be lower-case [a-z0-9_]",
                self.name
            )));
        }
        if self.inputs.is_empty() {
            return Err(NetSolveError::Description(format!(
                "problem '{}' declares no inputs",
                self.name
            )));
        }
        if self.major_input >= self.inputs.len() {
            return Err(NetSolveError::Description(format!(
                "problem '{}': major input index {} out of range ({} inputs)",
                self.name,
                self.major_input,
                self.inputs.len()
            )));
        }
        let mut names: Vec<&str> = self
            .inputs
            .iter()
            .chain(&self.outputs)
            .map(|o| o.name.as_str())
            .collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err(NetSolveError::Description(format!(
                "problem '{}' has duplicate argument names",
                self.name
            )));
        }
        Ok(())
    }

    /// Check a concrete argument list against the declared inputs.
    pub fn check_inputs(&self, args: &[DataObject]) -> Result<()> {
        if args.len() != self.inputs.len() {
            return Err(NetSolveError::BadArguments(format!(
                "problem '{}' expects {} inputs, got {}",
                self.name,
                self.inputs.len(),
                args.len()
            )));
        }
        for (spec, arg) in self.inputs.iter().zip(args) {
            if spec.kind != arg.kind() {
                return Err(NetSolveError::BadArguments(format!(
                    "problem '{}', argument '{}': expected {}, got {}",
                    self.name,
                    spec.name,
                    spec.kind,
                    arg.kind()
                )));
            }
        }
        Ok(())
    }

    /// Check a concrete result list against the declared outputs.
    pub fn check_outputs(&self, outs: &[DataObject]) -> Result<()> {
        if outs.len() != self.outputs.len() {
            return Err(NetSolveError::BadArguments(format!(
                "problem '{}' produces {} outputs, got {}",
                self.name,
                self.outputs.len(),
                outs.len()
            )));
        }
        for (spec, out) in self.outputs.iter().zip(outs) {
            if spec.kind != out.kind() {
                return Err(NetSolveError::BadArguments(format!(
                    "problem '{}', output '{}': expected {}, got {}",
                    self.name,
                    spec.name,
                    spec.kind,
                    out.kind()
                )));
            }
        }
        Ok(())
    }

    /// Dominant dimension of a concrete argument list, per the declared
    /// major input.
    pub fn dominant_dim(&self, args: &[DataObject]) -> u64 {
        args.get(self.major_input)
            .map(|o| o.dominant_dim())
            .unwrap_or(0)
    }

    /// Predicted flops for a concrete argument list.
    pub fn predicted_flops(&self, args: &[DataObject]) -> f64 {
        self.complexity.flops(self.dominant_dim(args))
    }
}

/// Wire bytes predicted for declared objects at dominant dimension `n`,
/// before the objects exist: matrices `n × n`, vectors `n`, sparse
/// matrices CSR with about five entries a row, scalars and text a
/// constant. The live client prices a call's outputs by it; the simulator
/// prices both directions.
pub fn estimated_wire_bytes(objects: &[ObjectSpec], n: u64) -> u64 {
    objects
        .iter()
        .map(|o| match o.kind {
            ObjectKind::IntScalar | ObjectKind::DoubleScalar => 8,
            ObjectKind::Vector => 8 + 8 * n,
            ObjectKind::Matrix => 16 + 8 * n * n,
            ObjectKind::SparseMatrix => 16 + 8 * (n + 1) + 16 * 5 * n,
            ObjectKind::Text => 64,
        })
        .sum()
}

/// The abstract *shape* of one request, which is all the agent needs for
/// ranking: problem name, dominant dimension, and bytes each way.
///
/// The live client computes this from real arguments; the simulator
/// synthesizes it directly from workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestShape {
    /// Problem mnemonic.
    pub problem: String,
    /// Dominant dimension `n` for the complexity formula.
    pub n: u64,
    /// Bytes the client will upload (inputs).
    pub bytes_in: u64,
    /// Bytes the server will send back (outputs).
    pub bytes_out: u64,
}

impl RequestShape {
    /// Derive the shape of a concrete call. Output size is estimated from
    /// the declared output kinds and the dominant dimension, since outputs
    /// do not exist yet at scheduling time (NetSolve did the same).
    pub fn from_call(spec: &ProblemSpec, args: &[DataObject]) -> Self {
        let n = spec.dominant_dim(args);
        RequestShape {
            problem: spec.name.clone(),
            n,
            bytes_in: crate::data::total_wire_bytes(args),
            bytes_out: estimated_wire_bytes(&spec.outputs, n),
        }
    }

    /// Total bytes both ways.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_in + self.bytes_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn dgesv_spec() -> ProblemSpec {
        ProblemSpec {
            name: "dgesv".into(),
            description: "solve dense linear system Ax=b".into(),
            inputs: vec![
                ObjectSpec::new("a", ObjectKind::Matrix, "coefficient matrix"),
                ObjectSpec::new("b", ObjectKind::Vector, "right-hand side"),
            ],
            outputs: vec![ObjectSpec::new("x", ObjectKind::Vector, "solution")],
            complexity: Complexity::new(2.0 / 3.0, 3.0).unwrap(),
            major_input: 0,
        }
    }

    #[test]
    fn complexity_math() {
        let c = Complexity::new(2.0, 3.0).unwrap();
        assert_eq!(c.flops(10), 2000.0);
        // 2000 flops at 1 Mflop/s = 2 ms
        assert!((c.seconds_at(10, 1.0) - 0.002).abs() < 1e-12);
        assert_eq!(c.seconds_at(10, 0.0), f64::INFINITY);
        assert_eq!(c.to_string(), "2*n^3");
    }

    #[test]
    fn complexity_rejects_invalid() {
        assert!(Complexity::new(0.0, 3.0).is_err());
        assert!(Complexity::new(-1.0, 2.0).is_err());
        assert!(Complexity::new(1.0, -1.0).is_err());
        assert!(Complexity::new(f64::NAN, 2.0).is_err());
    }

    #[test]
    fn spec_validates() {
        assert!(dgesv_spec().validate().is_ok());

        let mut bad = dgesv_spec();
        bad.name = "DGESV".into();
        assert!(bad.validate().is_err());

        let mut bad = dgesv_spec();
        bad.major_input = 5;
        assert!(bad.validate().is_err());

        let mut bad = dgesv_spec();
        bad.inputs.clear();
        assert!(bad.validate().is_err());

        let mut bad = dgesv_spec();
        bad.outputs[0].name = "a".into(); // duplicate with input
        assert!(bad.validate().is_err());

        let mut bad = dgesv_spec();
        bad.name = String::new();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn input_checking() {
        let spec = dgesv_spec();
        let good = vec![
            DataObject::Matrix(Matrix::identity(3)),
            DataObject::Vector(vec![1.0, 2.0, 3.0]),
        ];
        assert!(spec.check_inputs(&good).is_ok());

        // wrong arity
        assert!(spec.check_inputs(&good[..1]).is_err());
        // wrong kind
        let bad = vec![DataObject::Int(3), DataObject::Vector(vec![1.0])];
        assert!(spec.check_inputs(&bad).is_err());
    }

    #[test]
    fn output_checking() {
        let spec = dgesv_spec();
        assert!(spec.check_outputs(&[DataObject::Vector(vec![0.0; 3])]).is_ok());
        assert!(spec.check_outputs(&[DataObject::Int(1)]).is_err());
        assert!(spec.check_outputs(&[]).is_err());
    }

    #[test]
    fn dominant_dim_uses_major_input() {
        let spec = dgesv_spec();
        let args = vec![
            DataObject::Matrix(Matrix::zeros(50, 50)),
            DataObject::Vector(vec![0.0; 50]),
        ];
        assert_eq!(spec.dominant_dim(&args), 50);
        let expected = (2.0 / 3.0) * 50f64.powi(3);
        assert!((spec.predicted_flops(&args) - expected).abs() < 1e-6);
    }

    #[test]
    fn request_shape_from_call() {
        let spec = dgesv_spec();
        let args = vec![
            DataObject::Matrix(Matrix::zeros(10, 10)),
            DataObject::Vector(vec![0.0; 10]),
        ];
        let shape = RequestShape::from_call(&spec, &args);
        assert_eq!(shape.problem, "dgesv");
        assert_eq!(shape.n, 10);
        assert_eq!(shape.bytes_in, (16 + 800) + (8 + 80));
        // one vector output of length n
        assert_eq!(shape.bytes_out, 8 + 80);
        assert_eq!(shape.total_bytes(), shape.bytes_in + shape.bytes_out);
    }
}
