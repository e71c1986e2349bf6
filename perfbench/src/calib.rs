//! The host-speed reference that host times are scaled by.
//!
//! The benchmark runs on shared virtual machines whose speed changes by
//! up to 2.5× for minutes at a time as neighbours load the cores, caches
//! and memory they share, so raw times of the same code differ more
//! between runs than any useful bound. A fixed kernel, timed between
//! reps, measures that speed: a pointer chase through a 1 MiB ring
//! (cache-resident when the host is quiet) and a sparse matrix-vector
//! product over ~2 MiB. Its code and inputs never change, so a change to
//! the program moves the scaled times in full, while host drift moves
//! them only by how differently the program and the kernel react to it.

use std::hint::black_box;
use std::time::Instant;

/// Ring slots of the pointer chase (4 B each: 1 MiB).
const RING: usize = 1 << 18;
const CHASE_STEPS: usize = 2_000_000;
/// Rows and nonzeros per row of the sparse matrix.
const ROWS: usize = 20_000;
const ROW_NNZ: usize = 8;
const SWEEPS: usize = 80;
/// The geometric mean of the two parts' times at speed 1. On a 2-vCPU
/// Xeon (Sapphire Rapids class) virtual machine speeds read about 1.1 in
/// its slow mode and 2.4 in its fast one.
const NOMINAL_S: f64 = 0.022;

/// Fixed inputs of the reference kernel; built once, untimed.
pub struct Reference {
    ring: Vec<u32>,
    row_ptr: Vec<u32>,
    col: Vec<u32>,
    val: Vec<f64>,
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 33
}

impl Reference {
    pub fn new() -> Self {
        let mut x = 0x5eed_u64;
        // Sattolo's shuffle: one cycle through every slot.
        let mut ring: Vec<u32> = (0..RING as u32).collect();
        for i in (1..RING).rev() {
            ring.swap(i, lcg(&mut x) as usize % i);
        }
        let mut row_ptr = vec![0u32];
        let mut col = Vec::with_capacity(ROWS * ROW_NNZ);
        let mut val = Vec::with_capacity(ROWS * ROW_NNZ);
        for _ in 0..ROWS {
            for _ in 0..ROW_NNZ {
                col.push((lcg(&mut x) as usize % ROWS) as u32);
                val.push((lcg(&mut x) & 0xffff) as f64 / 65_536.0 * 0.2);
            }
            row_ptr.push(col.len() as u32);
        }
        Reference {
            ring,
            row_ptr,
            col,
            val,
        }
    }

    /// The host's speed now: [`NOMINAL_S`] over the geometric mean of
    /// the two parts' times. Below 1 on a slowed host, so a host time
    /// times this factor is the time the host would have taken at speed 1.
    pub fn speed(&self) -> f64 {
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.ring[at as usize];
        }
        black_box(at);
        let chase = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let mut v = vec![1.0f64; ROWS];
        for _ in 0..SWEEPS {
            for r in 0..ROWS {
                let span = self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize;
                let acc: f64 = self.val[span.clone()]
                    .iter()
                    .zip(&self.col[span])
                    .map(|(a, &c)| a * v[c as usize])
                    .sum();
                v[r] = acc * 0.5 + 0.25;
            }
        }
        black_box(&v);
        let spmv = start.elapsed().as_secs_f64();
        NOMINAL_S / (chase * spmv).sqrt()
    }
}
