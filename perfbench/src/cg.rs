//! Conjugate gradient on the shifted 2-D Laplacian over a 64×64 grid, rows
//! split across the two ranks. Each iteration makes one
//! `Communicator::allgather_slice` and two scalar `allreduce` calls.

use std::time::Instant;

use motor_api::{Communicator, ReduceOp};
use motor_core::cluster::MotorProc;
use motor_runtime::ElemKind;

use crate::bench::{agree, main_phases, us_since, warm_estimate_s, Ctx, Seg, Window};
use crate::ladder;
use crate::sys::Rng;
use crate::trace::Tracer;

pub const GRID: usize = 64;
const N: usize = GRID * GRID;
const ROWS: usize = N / 2;
/// Diagonal of the operator: the 5-point Laplacian shifted by 0.1 so it is
/// well conditioned.
const DIAG: f64 = 4.1;
/// Stop when the residual norm falls to this share of its start.
pub const TOL: f64 = 1e-8;
/// A solve that needs more iterations has failed.
const MAX_ITERS: usize = 1000;
/// Largest relative distance allowed from the single-threaded solution.
pub const MATCH_TOL: f64 = 1e-10;

/// The seeded right-hand side.
pub fn rhs(seed: u64) -> Vec<f64> {
    let mut rng = Rng::derive(seed, 0xc9);
    (0..N).map(|_| 0.5 + rng.unit()).collect()
}

/// Rows `row0..row0 + out.len()` of A·v.
fn spmv(v: &[f64], row0: usize, out: &mut [f64]) {
    for (li, o) in out.iter_mut().enumerate() {
        let i = row0 + li;
        let (x, y) = (i % GRID, i / GRID);
        let mut acc = DIAG * v[i];
        if x > 0 {
            acc -= v[i - 1];
        }
        if x + 1 < GRID {
            acc -= v[i + 1];
        }
        if y > 0 {
            acc -= v[i - GRID];
        }
        if y + 1 < GRID {
            acc -= v[i + GRID];
        }
        *o = acc;
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The same iteration on one thread without Motor. Dot products add the
/// two row blocks in rank order, as the allreduce does, so the iterates
/// match the distributed solve.
pub fn serial_solve(b: &[f64]) -> (Vec<f64>, usize) {
    let bdot = |a: &[f64], c: &[f64]| dot(&a[..ROWS], &c[..ROWS]) + dot(&a[ROWS..], &c[ROWS..]);
    let mut x = vec![0.0; N];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut q = vec![0.0; N];
    let mut rho = bdot(&r, &r);
    let rho0 = rho;
    for it in 1..=MAX_ITERS {
        spmv(&p, 0, &mut q);
        let alpha = rho / bdot(&p, &q);
        for i in 0..N {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rho_new = bdot(&r, &r);
        let beta = rho_new / rho;
        rho = rho_new;
        for i in 0..N {
            p[i] = r[i] + beta * p[i];
        }
        if (rho / rho0).sqrt() <= TOL {
            return (x, it);
        }
    }
    (x, MAX_ITERS + 1)
}

/// ‖b − A·x‖ / ‖b‖.
pub fn relative_residual(b: &[f64], x: &[f64]) -> f64 {
    let mut ax = vec![0.0; N];
    spmv(x, 0, &mut ax);
    let r: f64 = b.iter().zip(&ax).map(|(b, a)| (b - a) * (b - a)).sum();
    (r / dot(b, b)).sqrt()
}

/// Largest entry distance relative to the largest reference entry.
pub fn relative_distance(x: &[f64], reference: &[f64]) -> f64 {
    let scale = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let diff = x
        .iter()
        .zip(reference)
        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    diff / scale
}

struct Solved {
    x: Vec<f64>,
    iters: usize,
    converged: bool,
}

/// One distributed solve from x = 0; every iteration's time goes to
/// `name`.
fn solve(
    comm: &Communicator<'_>,
    b: &[f64],
    row0: usize,
    tr: &mut Tracer,
    seg: &mut Seg,
    name: &'static str,
) -> Result<Solved, String> {
    let err = |e: motor_api::Error| e.to_string();
    let mut x = vec![0.0; ROWS];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut q = vec![0.0; ROWS];
    let mut pg = vec![0.0; N];
    let mut rho = comm.allreduce(dot(&r, &r), ReduceOp::Sum).map_err(err)?;
    let rho0 = rho;
    for it in 1..=MAX_ITERS {
        tr.next_op();
        tr.enter("op", "iter");
        let t0 = Instant::now();
        tr.span("api", "allgather", || comm.allgather_slice(&p, &mut pg))
            .map_err(err)?;
        tr.span("app", "spmv", || spmv(&pg, row0, &mut q));
        let pq = tr.span("app", "dot", || dot(&p, &q));
        let pq = tr
            .span("api", "allreduce", || comm.allreduce(pq, ReduceOp::Sum))
            .map_err(err)?;
        let alpha = rho / pq;
        tr.span("app", "axpy", || {
            for i in 0..ROWS {
                x[i] += alpha * p[i];
                r[i] -= alpha * q[i];
            }
        });
        let rr = tr.span("app", "dot", || dot(&r, &r));
        let rho_new = tr
            .span("api", "allreduce", || comm.allreduce(rr, ReduceOp::Sum))
            .map_err(err)?;
        let beta = rho_new / rho;
        rho = rho_new;
        tr.span("app", "xpay", || {
            for i in 0..ROWS {
                p[i] = r[i] + beta * p[i];
            }
        });
        let us = us_since(t0);
        tr.exit();
        if comm.rank() == 0 {
            seg.sample(name, us);
        }
        if (rho / rho0).sqrt() <= TOL {
            return Ok(Solved {
                x,
                iters: it,
                converged: true,
            });
        }
    }
    Ok(Solved {
        x,
        iters: MAX_ITERS,
        converged: false,
    })
}

/// The seeded right-hand side and its single-threaded solution, made once
/// per run outside the clusters: they are the benchmark's input and check,
/// not Motor's set-up.
pub struct Reference {
    b: Vec<f64>,
    x: Vec<f64>,
    /// The solution reached the tolerance and satisfies the operator.
    valid: bool,
    /// Times of the single-threaded solves, in µs.
    pub serial_us: Vec<f64>,
}

impl Reference {
    pub fn new(seed: u64) -> Reference {
        let b = rhs(seed);
        let mut serial_us = Vec::new();
        let mut solved = None;
        for _ in 0..5 {
            let t0 = Instant::now();
            solved = Some(serial_solve(&b));
            serial_us.push(us_since(t0));
        }
        let (x, iters) = solved.expect("serial solve ran");
        let valid = iters <= MAX_ITERS && relative_residual(&b, &x) <= 10.0 * TOL;
        Reference {
            b,
            x,
            valid,
            serial_us,
        }
    }
}

/// Rank body of the `cg` workload.
pub fn run(
    proc: &MotorProc,
    ctx: &Ctx,
    reference: &Reference,
    seg: &mut Seg,
) -> Result<(), String> {
    let rank0 = proc.rank() == 0;
    let comm = Communicator::bind(proc.mp());
    let row0 = proc.rank() * ROWS;
    let bl = &reference.b[row0..row0 + ROWS];
    if !reference.valid {
        seg.fail("serial reference did not converge");
    }
    let xs = &reference.x[row0..row0 + ROWS];

    if rank0 {
        seg.setup_s.push(ctx.called.elapsed().as_secs_f64());
    }
    let warm_start = Instant::now();
    let mut off = Tracer::new(false, proc.rank(), ctx.called);
    let mut warm = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        solve(&comm, bl, row0, &mut off, seg, "warm")?;
        warm.push(us_since(t0));
    }
    seg.samples.remove("warm");
    let est = if rank0 { warm_estimate_s(&warm) } else { 0.0 };
    let phases = main_phases(ctx.plan.traced);
    let wanted: Vec<u64> = phases
        .iter()
        .map(|p| ctx.plan.count(p.share, est))
        .collect();
    let counts = agree(proc, &wanted)?;
    for (p, &n) in phases.iter().zip(&counts) {
        let mut tr = Tracer::new(p.traced, proc.rank(), ctx.called);
        if p.window && rank0 {
            seg.sample("warmup", us_since(warm_start));
        }
        let win = p.window.then(|| Window::open(proc));
        let mut iters = 0;
        for _ in 0..n {
            let t0 = Instant::now();
            let s = solve(&comm, bl, row0, &mut tr, seg, p.name)?;
            let us = us_since(t0);
            iters += s.iters as u64;
            if rank0 {
                seg.attempted += 1;
                if p.window {
                    seg.sample("solve", us);
                }
                seg.facts.insert("cg.iterations", s.iters as f64);
            }
            if !s.converged {
                seg.fail("solve did not reach the tolerance");
            } else if relative_distance(&s.x, xs) > MATCH_TOL {
                seg.fail("solution differs from the single-threaded solve");
            }
        }
        if let Some(w) = win {
            w.close(proc, iters, seg);
        }
        seg.spans.merge(tr.take());
    }
    let msg = ROWS * std::mem::size_of::<f64>();
    seg.facts.insert("msg_bytes", msg as f64);
    // Per iteration each rank's block must cross once for the allgather,
    // and each rank's scalar once per allreduce.
    seg.facts
        .insert("payload_bytes_per_op", 2.0 * msg as f64 + 4.0 * 8.0);
    if ctx.plan.traced {
        ladder::run(proc, ctx, msg, seg)?;
        let t = proc.thread();
        let arr = t.alloc_prim_array(ElemKind::F64, ROWS);
        t.prim_write(arr, 0, xs);
        let res = ladder::serializer(proc, ctx, rank0.then_some(arr), seg);
        t.release(arr);
        res?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_solve_converges_to_the_operator() {
        let b = rhs(1);
        let (x, iters) = serial_solve(&b);
        assert!(iters <= MAX_ITERS);
        assert!(relative_residual(&b, &x) < 10.0 * TOL);
        assert_eq!(rhs(1), b);
        assert_ne!(rhs(2), b);
    }

    #[test]
    fn relative_distance_scales_by_the_reference() {
        assert_eq!(relative_distance(&[1.0, 2.5], &[1.0, 2.0]), 0.25);
    }
}
