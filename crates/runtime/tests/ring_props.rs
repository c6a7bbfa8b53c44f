//! Property tests of the ring collective's determinism contract: for
//! arbitrary world sizes, gradient lengths, chunk sizes, and gradient
//! values, the ring all-reduce must produce output bitwise identical to
//! the pure DP-order fold [`sequential_sum_reference`] on every rank.

use moc_runtime::collective::{ring_all_reduce, sequential_sum_reference, RingMesh};
use proptest::prelude::*;
use std::time::Duration;

/// Deterministic pseudo-random gradients: a splitmix-style generator so
/// the values exercise many exponents/signs without a float strategy per
/// element (the gradient count varies with `world × len`).
fn synth_grads(seed: u64, world: usize, len: usize) -> Vec<Vec<f32>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..world)
        .map(|_| {
            (0..len)
                .map(|_| {
                    // Map to roughly [-8, 8) with plenty of mantissa noise.
                    let bits = next();
                    (bits as f64 / u64::MAX as f64 * 16.0 - 8.0) as f32
                })
                .collect()
        })
        .collect()
}

fn run_ring(grads: &[Vec<f32>], chunk: usize) -> Vec<Vec<f32>> {
    let world = grads.len();
    let mesh = RingMesh::new(world, grads[0].len(), chunk);
    let handles: Vec<_> = grads
        .iter()
        .enumerate()
        .map(|(rank, grad)| {
            let ep = mesh.endpoints(rank);
            let mut grad = grad.clone();
            std::thread::spawn(move || {
                ring_all_reduce(&ep, &mut grad, 7, 3, Duration::from_secs(10))
                    .expect("fault-free ring completes");
                grad
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ring_is_bitwise_identical_to_the_dp_order_fold(
        world in 1usize..7,
        len in 1usize..200,
        chunk in 1usize..64,
        seed in any::<u64>(),
    ) {
        let grads = synth_grads(seed, world, len);
        let reference: Vec<u32> = sequential_sum_reference(&grads)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        for (rank, out) in run_ring(&grads, chunk).into_iter().enumerate() {
            let bits: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(
                &bits, &reference,
                "rank {} diverged (world {}, len {}, chunk {})",
                rank, world, len, chunk
            );
        }
    }

    #[test]
    fn ring_output_is_independent_of_chunk_size(
        world in 2usize..6,
        len in 1usize..150,
        seed in any::<u64>(),
    ) {
        let grads = synth_grads(seed, world, len);
        let small = run_ring(&grads, 1);
        let large = run_ring(&grads, len.max(7));
        for (a, b) in small.iter().zip(&large) {
            let ab: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
            let bb: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(ab, bb);
        }
    }
}
