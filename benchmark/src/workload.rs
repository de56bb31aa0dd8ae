//! The five workloads: what each sends, in which order, and how a reply
//! is judged correct. Everything here is a pure function of the seed.

use netsolve_core::matrix::vec_norm2;
use netsolve_core::{DataObject, Matrix, Rng64};

/// A reply matches its reference when every value agrees to this
/// relative tolerance (relative to the largest reference magnitude).
pub const REPLY_TOLERANCE: f64 = 1e-9;
/// A reference solution of a linear system is accepted only below this
/// normwise backward error.
pub const BACKWARD_ERROR_LIMIT: f64 = 1e-10;

/// The fixed shape of one workload. All are closed loops: a client sends
/// its next call only after the previous reply arrived. Why each exists is
/// recorded in `BENCHMARK.json` and `README.md`.
pub struct Spec {
    pub name: &'static str,
    pub clients: usize,
    pub servers: usize,
    /// Share of a call's time on a quiet machine that goes to arithmetic,
    /// to fresh memory and to the kernel's networking and wake-ups, in
    /// the order of `calib::REFERENCE`; sums to 1. The speed factor
    /// weighs the three calibration probes by it (`README.md`,
    /// "Speed factor", says where the figures come from).
    pub mix: [f64; 3],
    /// Builds the operand pool, reference answers and call order for a
    /// seed; fails if a locally computed reference does not check out.
    plan: fn(&Spec, u64, &mut Rng64) -> Result<Plan, String>,
}

#[rustfmt::skip]
pub const SPECS: [Spec; 5] = [
    Spec { name: "tiny_call", clients: 2, servers: 2, mix: [0.7, 0.0, 0.3], plan: tiny_call },
    Spec { name: "bulk_request", clients: 1, servers: 1, mix: [0.15, 0.65, 0.2], plan: bulk_request },
    Spec { name: "bulk_reply", clients: 1, servers: 1, mix: [0.6, 0.1, 0.3], plan: bulk_reply },
    Spec { name: "solve_dgesv", clients: 1, servers: 1, mix: [0.85, 0.05, 0.1], plan: solve_dgesv },
    Spec { name: "cached_mix", clients: 1, servers: 1, mix: [0.55, 0.25, 0.2], plan: cached_mix },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One call the workload can make, with the answer it must produce.
pub struct Case {
    pub problem: &'static str,
    pub inputs: Vec<DataObject>,
    pub reference: Vec<DataObject>,
    /// Operand + result payload bytes, computed from object sizes.
    pub payload_bytes: u64,
    /// Floating-point operations of the solve, computed from the shape.
    pub flops: f64,
}

/// A workload instantiated for one seed.
pub struct Plan {
    pub cases: Vec<Case>,
    /// Per client: the case indices its warm-up sends, once.
    pub warmup: Vec<Vec<u32>>,
    /// Per client: the case indices its timed loop cycles through.
    pub order: Vec<Vec<u32>>,
    /// Byte budget of the server's solve cache, when the workload has one.
    pub cache_budget: Option<usize>,
}

const TINY_LEN: usize = 8;
const TINY_CASES_PER_CLIENT: usize = 16;
const TINY_WARM_CALLS: usize = 1000;
const BULK_VECTOR_LEN: usize = 128 * 1024; // 1 MiB of f64
const BULK_POOL: usize = 3;
const BULK_WARM_CALLS: usize = 40;
const GEMM_OUTER: usize = 512;
const GEMM_INNER: usize = 2;
const DGESV_N: usize = 512;
const DGESV_POOL: usize = 8;
const CACHED_N: usize = 192;
const CACHED_POOL: usize = 64;
const CACHED_WARM_DRAWS: usize = 256;
const CACHED_SEQUENCE: usize = 1 << 15;

pub fn build(spec: &Spec, seed: u64) -> Result<Plan, String> {
    (spec.plan)(spec, seed, &mut Rng64::new(seed ^ name_salt(spec.name)))
}

/// 8-element `dnrm2` / `ddot`, alternating, each client on its own cases.
fn tiny_call(spec: &Spec, _seed: u64, rng: &mut Rng64) -> Result<Plan, String> {
    let mut cases = Vec::new();
    for i in 0..spec.clients * TINY_CASES_PER_CLIENT {
        let x = random_vector(TINY_LEN, rng);
        cases.push(if i % 2 == 0 {
            case("dnrm2", vec![x.into()])?
        } else {
            case("ddot", vec![x.into(), random_vector(TINY_LEN, rng).into()])?
        });
    }
    let order: Vec<Vec<u32>> = (0..spec.clients as u32)
        .map(|c| {
            (0..TINY_CASES_PER_CLIENT as u32)
                .map(|j| c * TINY_CASES_PER_CLIENT as u32 + j)
                .collect()
        })
        .collect();
    // Enough calls for every lazily made thread, buffer and estimate to
    // exist, and enough that set-up time is not a few thread starts,
    // which read twice as long on one run as on the next.
    let warmup = order
        .iter()
        .map(|o| o.iter().cycle().take(TINY_WARM_CALLS).copied().collect())
        .collect();
    Ok(Plan {
        cases,
        warmup,
        order,
        cache_budget: None,
    })
}

/// `ddot` of two 1 MiB vectors: 2 MiB request, 8-byte reply.
fn bulk_request(_spec: &Spec, _seed: u64, rng: &mut Rng64) -> Result<Plan, String> {
    let cases = (0..BULK_POOL)
        .map(|_| {
            let (x, y) = (
                random_vector(BULK_VECTOR_LEN, rng),
                random_vector(BULK_VECTOR_LEN, rng),
            );
            case("ddot", vec![x.into(), y.into()])
        })
        .collect::<Result<_, _>>()?;
    Ok(cyclic(cases, BULK_WARM_CALLS))
}

/// `dgemm` 512x2 by 2x512: 16 KiB request, 2 MiB reply.
fn bulk_reply(_spec: &Spec, _seed: u64, rng: &mut Rng64) -> Result<Plan, String> {
    let cases = (0..BULK_POOL)
        .map(|_| {
            let a = Matrix::random(GEMM_OUTER, GEMM_INNER, rng);
            let b = Matrix::random(GEMM_INNER, GEMM_OUTER, rng);
            case("dgemm", vec![a.into(), b.into()])
        })
        .collect::<Result<_, _>>()?;
    Ok(cyclic(cases, BULK_WARM_CALLS))
}

/// `dgesv` n=512 over a pool of diagonally dominant systems.
fn solve_dgesv(_spec: &Spec, _seed: u64, rng: &mut Rng64) -> Result<Plan, String> {
    let cases = (0..DGESV_POOL)
        .map(|_| dgesv_case(DGESV_N, rng))
        .collect::<Result<_, _>>()?;
    Ok(cyclic(cases, 4))
}

/// `dgesv` n=192 drawn Zipf(1.0) from 64 systems, against a cache sized
/// to a quarter of the pool's encoded replies.
fn cached_mix(_spec: &Spec, seed: u64, rng: &mut Rng64) -> Result<Plan, String> {
    let cases: Vec<Case> = (0..CACHED_POOL)
        .map(|_| dgesv_case(CACHED_N, rng))
        .collect::<Result<_, _>>()?;
    let reply_bytes: usize = cases
        .iter()
        .map(|c| netsolve_xdr::to_bytes(&c.reference).len())
        .sum();
    // One full pass, then seeded draws, so the timed sequence starts
    // from the same cache contents for a given seed.
    let mut warm: Vec<u32> = (0..CACHED_POOL as u32).collect();
    warm.extend(zipf_sequence(
        seed ^ 0x5741_524d,
        CACHED_POOL,
        CACHED_WARM_DRAWS,
    ));
    Ok(Plan {
        cases,
        warmup: vec![warm],
        order: vec![zipf_sequence(seed, CACHED_POOL, CACHED_SEQUENCE)],
        cache_budget: Some(reply_bytes / 4),
    })
}

/// A single-client plan that walks the pool in order.
fn cyclic(cases: Vec<Case>, warm_calls: usize) -> Plan {
    let order: Vec<u32> = (0..cases.len() as u32).collect();
    let warmup = order.iter().cycle().take(warm_calls).copied().collect();
    Plan {
        cases,
        warmup: vec![warmup],
        order: vec![order],
        cache_budget: None,
    }
}

fn name_salt(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn random_vector(len: usize, rng: &mut Rng64) -> Vec<f64> {
    (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
}

fn dgesv_case(n: usize, rng: &mut Rng64) -> Result<Case, String> {
    let a = Matrix::random_diag_dominant(n, rng);
    let b = random_vector(n, rng);
    case("dgesv", vec![a.into(), b.into()])
}

/// Solve locally for the reference answer and check it independently.
fn case(problem: &'static str, inputs: Vec<DataObject>) -> Result<Case, String> {
    let reference = netsolve_solvers::execute(problem, &inputs)
        .map_err(|e| format!("local {problem} failed: {e}"))?;
    check_reference(problem, &inputs, &reference)?;
    let payload_bytes = netsolve_core::data::total_wire_bytes(&inputs)
        + netsolve_core::data::total_wire_bytes(&reference);
    let flops = flops_of(problem, &inputs);
    Ok(Case {
        problem,
        inputs,
        reference,
        payload_bytes,
        flops,
    })
}

fn flops_of(problem: &str, inputs: &[DataObject]) -> f64 {
    match (problem, inputs) {
        ("dgesv", [DataObject::Matrix(a), _]) => 2.0 * (a.rows() as f64).powi(3) / 3.0,
        ("dgemm", [DataObject::Matrix(a), DataObject::Matrix(b)]) => {
            2.0 * a.rows() as f64 * a.cols() as f64 * b.cols() as f64
        }
        (_, [DataObject::Vector(x), ..]) => 2.0 * x.len() as f64,
        _ => 0.0,
    }
}

/// Check a locally computed answer by a route that shares no code with
/// the solver: a residual for `dgesv`, plain loops for the BLAS calls.
fn check_reference(
    problem: &str,
    inputs: &[DataObject],
    reference: &[DataObject],
) -> Result<(), String> {
    let bad = |what: String| Err(format!("reference for {problem} rejected: {what}"));
    match (problem, inputs, reference) {
        ("dgesv", [DataObject::Matrix(a), DataObject::Vector(b)], [DataObject::Vector(x)]) => {
            let err = backward_error(a, x, b);
            if err > BACKWARD_ERROR_LIMIT {
                return bad(format!("backward error {err:e}"));
            }
        }
        ("ddot", [DataObject::Vector(x), DataObject::Vector(y)], [DataObject::Double(got)]) => {
            let want: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
            let scale: f64 = x.iter().zip(y).map(|(a, b)| (a * b).abs()).sum();
            if (got - want).abs() > REPLY_TOLERANCE * scale.max(f64::MIN_POSITIVE) {
                return bad(format!("{got} vs {want}"));
            }
        }
        ("dnrm2", [DataObject::Vector(x)], [DataObject::Double(got)]) => {
            let want = x.iter().map(|a| a * a).sum::<f64>().sqrt();
            if (got - want).abs() > REPLY_TOLERANCE * want.max(f64::MIN_POSITIVE) {
                return bad(format!("{got} vs {want}"));
            }
        }
        ("dgemm", [DataObject::Matrix(a), DataObject::Matrix(b)], [DataObject::Matrix(c)]) => {
            if c.rows() != a.rows() || c.cols() != b.cols() {
                return bad(format!("shape {}x{}", c.rows(), c.cols()));
            }
            // Every 97th entry, recomputed as a plain inner product.
            for idx in (0..c.len()).step_by(97) {
                let (r, col) = (idx % c.rows(), idx / c.rows());
                let want: f64 = (0..a.cols()).map(|k| a[(r, k)] * b[(k, col)]).sum();
                if (c[(r, col)] - want).abs() > REPLY_TOLERANCE * a.cols() as f64 {
                    return bad(format!("entry ({r},{col}): {} vs {want}", c[(r, col)]));
                }
            }
        }
        _ => return bad("unexpected shape".into()),
    }
    Ok(())
}

/// Normwise backward error ‖Ax−b‖ / (‖A‖‖x‖ + ‖b‖) of a solution `x`.
pub fn backward_error(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let Ok(ax) = a.matvec(x) else {
        return f64::INFINITY;
    };
    let residual: Vec<f64> = ax.iter().zip(b).map(|(p, q)| p - q).collect();
    vec_norm2(&residual) / (a.frobenius_norm() * vec_norm2(x) + vec_norm2(b))
}

impl Case {
    /// Whether `outputs` agree with the reference within [`REPLY_TOLERANCE`].
    pub fn matches(&self, outputs: &[DataObject]) -> bool {
        outputs.len() == self.reference.len()
            && outputs
                .iter()
                .zip(&self.reference)
                .all(|(got, want)| object_matches(got, want))
    }
}

fn object_matches(got: &DataObject, want: &DataObject) -> bool {
    match (got, want) {
        (DataObject::Double(g), DataObject::Double(w)) => slices_match(&[*g], &[*w]),
        (DataObject::Vector(g), DataObject::Vector(w)) => slices_match(g, w),
        (DataObject::Matrix(g), DataObject::Matrix(w)) => {
            g.rows() == w.rows() && slices_match(g.as_slice(), w.as_slice())
        }
        (g, w) => g == w,
    }
}

fn slices_match(got: &[f64], want: &[f64]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let scale = want.iter().fold(f64::MIN_POSITIVE, |m, v| m.max(v.abs()));
    let worst = got
        .iter()
        .zip(want)
        .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
    // A NaN anywhere makes `worst` NaN or leaves it small; catch both.
    worst <= REPLY_TOLERANCE * scale && got.iter().all(|g| g.is_finite())
}

/// `len` draws from a Zipf(1.0) distribution over `items` items, item
/// popularity assigned by a seeded shuffle. Equal seeds give equal draws.
pub fn zipf_sequence(seed: u64, items: usize, len: usize) -> Vec<u32> {
    let mut rng = Rng64::new(seed);
    let mut by_rank: Vec<u32> = (0..items as u32).collect();
    rng.shuffle(&mut by_rank);
    let weights: Vec<f64> = (1..=items).map(|rank| 1.0 / rank as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cumulative = Vec::with_capacity(items);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cumulative.push(acc);
    }
    (0..len)
        .map(|_| {
            let u = rng.next_f64();
            let rank = cumulative.partition_point(|c| *c < u).min(items - 1);
            by_rank[rank]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sequence_repeats_for_equal_seeds_only() {
        let a = zipf_sequence(7, 64, 4000);
        assert_eq!(a, zipf_sequence(7, 64, 4000));
        assert_ne!(a, zipf_sequence(8, 64, 4000));
        assert!(a.iter().all(|&i| i < 64));
        // Zipf(1.0) over 64 items: the most popular item draws ~21%.
        let mut counts = [0usize; 64];
        for &i in &a {
            counts[i as usize] += 1;
        }
        let top = *counts.iter().max().unwrap() as f64 / a.len() as f64;
        assert!((0.17..0.25).contains(&top), "top share {top}");
    }

    #[test]
    fn plans_repeat_for_equal_seeds() {
        let spec = spec("tiny_call").unwrap();
        let (a, b) = (build(spec, 3).unwrap(), build(spec, 3).unwrap());
        assert_eq!(a.order, b.order);
        assert!(a
            .cases
            .iter()
            .zip(&b.cases)
            .all(|(x, y)| x.inputs == y.inputs));
        let c = build(spec, 4).unwrap();
        assert!(a
            .cases
            .iter()
            .zip(&c.cases)
            .any(|(x, y)| x.inputs != y.inputs));
    }

    #[test]
    fn replies_are_judged_against_the_reference() {
        let plan = build(spec("tiny_call").unwrap(), 1).unwrap();
        let case = &plan.cases[1];
        assert!(case.matches(&case.reference));
        let DataObject::Double(v) = case.reference[0] else {
            panic!("ddot returns a double")
        };
        assert!(!case.matches(&[DataObject::Double(v * (1.0 + 1e-6))]));
        assert!(!case.matches(&[DataObject::Double(f64::NAN)]));
        assert!(!case.matches(&[]));
    }

    #[test]
    fn backward_error_separates_right_from_wrong() {
        let mut rng = Rng64::new(5);
        let a = Matrix::random_diag_dominant(24, &mut rng);
        let x = random_vector(24, &mut rng);
        let b = a.matvec(&x).unwrap();
        assert!(backward_error(&a, &x, &b) < 1e-14);
        let mut wrong = x.clone();
        wrong[3] += 1e-3;
        assert!(backward_error(&a, &wrong, &b) > BACKWARD_ERROR_LIMIT);
    }
}
