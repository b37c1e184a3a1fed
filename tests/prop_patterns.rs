//! Property tests: the pattern library delivers correct data for random
//! shapes and the analyses classify what was executed.

use commint::analysis::{classify, resolve_graph, Pattern};
use commint::patterns;
use commint::prelude::*;
use integration::with_world_session;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cyclic_shift_rotates_for_random_shapes(
        n in 2usize..10,
        k in 1i64..9,
        base in any::<i32>(),
    ) {
        let res = with_world_session(n, move |s| {
            let me = s.rank() as i64;
            let send = [i64::from(base) + me];
            let mut recv = [i64::MIN];
            patterns::cyclic_shift(s, Target::Mpi2Side, k, &send, &mut recv).unwrap();
            recv[0]
        });
        let kk = (k as usize) % n;
        for (r, &v) in res.per_rank.iter().enumerate() {
            let expect_src = (r + n - kk) % n;
            prop_assert_eq!(v, i64::from(base) + expect_src as i64);
        }
    }

    #[test]
    fn cyclic_shift_classification(n in 2usize..12, k in 1i64..11) {
        prop_assume!(!(k as usize).is_multiple_of(n));
        let res = with_world_session(n, move |s| {
            let send = [0i64];
            let mut recv = [0i64];
            patterns::cyclic_shift(s, Target::Mpi2Side, k, &send, &mut recv).unwrap();
            s.program().to_vec()
        });
        let program = &res.per_rank[0];
        let g = resolve_graph(
            &program[0].body[0],
            Some(&program[0].clauses),
            n,
            &Default::default(),
        );
        let m = g.matching();
        prop_assert!(m.fully_matched());
        prop_assert_eq!(classify(&m, n), Pattern::CyclicShift { k: (k as usize) % n });
    }

    #[test]
    fn halo_ghosts_correct_for_random_widths(
        n in 2usize..8,
        width in 1usize..5,
    ) {
        let res = with_world_session(n, move |s| {
            let me = s.rank() as i64;
            let left_edge: Vec<i64> = (0..width as i64).map(|i| me * 100 + i).collect();
            let right_edge: Vec<i64> = (0..width as i64).map(|i| me * 100 + 50 + i).collect();
            let mut lg = vec![-1i64; width];
            let mut rg = vec![-1i64; width];
            patterns::halo_1d(s, Target::Mpi2Side, &left_edge, &right_edge, &mut lg, &mut rg)
                .unwrap();
            (lg, rg)
        });
        for (r, (lg, rg)) in res.per_rank.iter().enumerate() {
            if r > 0 {
                prop_assert_eq!(lg[0], (r as i64 - 1) * 100 + 50);
            } else {
                prop_assert!(lg.iter().all(|&v| v == -1));
            }
            if r < n - 1 {
                prop_assert_eq!(rg[0], (r as i64 + 1) * 100);
            } else {
                prop_assert!(rg.iter().all(|&v| v == -1));
            }
        }
    }

    #[test]
    fn fan_out_random_roots(n in 2usize..8, root_pick in any::<u8>()) {
        let root = root_pick as usize % n;
        let res = with_world_session(n, move |s| {
            let chunks: Vec<Vec<i64>> = (0..n).map(|d| vec![d as i64 * 7 + 1, d as i64]).collect();
            let mut recv = [0i64; 2];
            patterns::fan_out(s, Target::Mpi2Side, root, &chunks, &mut recv).unwrap();
            recv
        });
        for (r, v) in res.per_rank.iter().enumerate() {
            if r != root {
                prop_assert_eq!(*v, [r as i64 * 7 + 1, r as i64]);
            }
        }
    }

    #[test]
    fn linear_shift_boundaries_for_random_n(n in 2usize..10) {
        let res = with_world_session(n, move |s| {
            let me = s.rank() as i64;
            let send = [me];
            let mut recv = [-7i64];
            patterns::linear_shift(s, Target::Mpi2Side, &send, &mut recv).unwrap();
            recv[0]
        });
        prop_assert_eq!(res.per_rank[0], -7);
        for (r, &v) in res.per_rank.iter().enumerate().skip(1) {
            prop_assert_eq!(v, r as i64 - 1);
        }
    }
}
