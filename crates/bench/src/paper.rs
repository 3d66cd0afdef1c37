//! The paper's published measurements, transcribed for side-by-side
//! comparison in the reproduction reports.

/// Table 1: elapsed time for solving a linear system, normalised by
/// Netlib LAPACK `ZGBTRF/ZGBTRS` (N = 1024). Columns: bandwidth,
/// Lonestar MKL(real-split), MKL(complex), Custom; Mira ESSL, Custom.
pub const TABLE1: &[(usize, f64, f64, f64, f64, f64)] = &[
    (3, 0.67, 0.65, 0.14, 0.81, 0.16),
    (5, 0.55, 0.61, 0.12, 0.85, 0.19),
    (7, 0.53, 0.58, 0.11, 0.81, 0.19),
    (9, 0.53, 0.56, 0.10, 0.84, 0.19),
    (11, 0.47, 0.56, 0.10, 0.88, 0.19),
    (13, 0.45, 0.55, 0.11, 0.74, 0.21),
    (15, 0.41, 0.53, 0.11, 0.71, 0.20),
];

/// Table 2 (no-SIMD column): Gflops, % of peak, IPC, L1%, L2%, DDR%,
/// DDR bytes/cycle, elapsed seconds.
pub const TABLE2_NOSIMD: (f64, f64, f64, f64, f64, f64, f64, f64) =
    (1.16, 9.05, 0.89, 98.2, 0.92, 0.88, 16.8, 3.34);
/// Table 2 (SIMD column).
pub const TABLE2_SIMD: (f64, f64, f64, f64, f64, f64, f64, f64) =
    (4.96, 38.8, 1.22, 98.01, 1.45, 0.53, 14.2, 3.96);

/// Table 3, Mira block: threads and speedups (FFT, N-S advance).
pub const TABLE3_MIRA: &[(usize, f64, f64)] = &[
    (2, 1.99, 2.00),
    (4, 3.96, 4.00),
    (8, 7.88, 7.97),
    (16, 15.4, 15.9),
    (32, 27.6, 29.9),
    (64, 32.6, 34.5),
];

/// Table 3, Lonestar block (within one socket, up to 6 cores).
pub const TABLE3_LONESTAR: &[(usize, f64, f64)] = &[
    (2, 2.03, 1.99),
    (3, 3.18, 2.98),
    (4, 4.07, 3.65),
    (5, 4.88, 4.77),
    (6, 5.49, 5.70),
];

/// Table 4 (Mira data reordering): threads, DDR bytes/cycle, speedup.
pub const TABLE4: &[(usize, f64, f64)] = &[
    (2, 3.8, 1.98),
    (4, 7.6, 3.90),
    (8, 13.6, 5.54),
    (16, 16.1, 6.24),
    (32, 15.8, 5.99),
    (64, 13.6, 5.56),
];

/// Table 5: CommA x CommB and transpose-cycle seconds.
pub const TABLE5_MIRA: &[(usize, usize, f64)] = &[
    (512, 16, 0.386),
    (256, 32, 0.462),
    (128, 64, 0.593),
    (64, 128, 0.609),
    (32, 256, 0.614),
    (16, 512, 0.626),
];
/// Table 5 on Lonestar (384 cores).
pub const TABLE5_LONESTAR: &[(usize, usize, f64)] = &[
    (32, 12, 2.966),
    (16, 24, 3.317),
    (8, 48, 3.669),
    (4, 96, 3.775),
];

/// One row of Table 6: cores, P3DFFT seconds (None = N/A), customized
/// seconds (None = N/A).
pub type T6Row = (usize, Option<f64>, Option<f64>);

/// Table 6, Mira small grid (Nx/Ny=Nz: 2048/1024).
pub const TABLE6_MIRA1: &[T6Row] = &[
    (128, Some(11.5), Some(5.38)),
    (256, Some(5.88), Some(2.78)),
    (512, Some(2.95), Some(1.18)),
    (1024, Some(1.46), Some(0.580)),
    (2048, Some(0.724), Some(0.287)),
    (4096, Some(0.360), Some(0.139)),
    (8192, Some(0.179), Some(0.068)),
];
/// Table 6, Mira large grid (18432/12288).
pub const TABLE6_MIRA2: &[T6Row] = &[
    (65_536, None, Some(30.5)),
    (131_072, None, Some(16.2)),
    (262_144, Some(12.4), Some(8.51)),
    (393_216, Some(10.1), Some(5.85)),
    (524_288, Some(6.90), Some(4.04)),
    (786_432, Some(4.55), Some(3.12)),
];
/// Table 6, Lonestar (768/768).
pub const TABLE6_LONESTAR: &[T6Row] = &[
    (12, None, Some(6.00)),
    (24, Some(2.67), Some(3.63)),
    (48, Some(1.57), Some(2.13)),
    (96, Some(0.873), Some(1.12)),
    (192, Some(0.547), Some(0.580)),
    (384, Some(0.294), Some(0.297)),
    (768, Some(0.212), Some(0.172)),
    (1536, Some(0.193), Some(0.111)),
];
/// Table 6, Stampede (1024/1024).
pub const TABLE6_STAMPEDE: &[T6Row] = &[
    (16, None, Some(6.88)),
    (32, None, Some(4.42)),
    (64, Some(2.16), Some(2.51)),
    (128, Some(1.32), Some(1.39)),
    (256, Some(0.676), Some(0.718)),
    (512, Some(0.421), Some(0.377)),
    (1024, Some(0.296), Some(0.199)),
    (2048, Some(0.201), Some(0.113)),
    (4096, Some(0.194), Some(0.0636)),
];

/// One row of Tables 9/10: cores, transpose, fft, ns, total (seconds).
pub type T9Row = (usize, f64, f64, f64, f64);

/// Table 9 Mira, MPI mode (strong scaling, 18432 x 1536 x 12288).
pub const TABLE9_MIRA_MPI: &[T9Row] = &[
    (131_072, 26.9, 7.32, 6.98, 41.2),
    (262_144, 13.6, 4.02, 3.44, 21.1),
    (393_216, 8.92, 2.61, 2.28, 13.8),
    (524_288, 6.81, 2.09, 1.75, 10.6),
    (786_432, 4.50, 1.36, 1.21, 7.06),
];
/// Table 9 Mira, hybrid mode.
pub const TABLE9_MIRA_HYBRID: &[T9Row] = &[
    (65_536, 39.8, 13.8, 13.6, 67.2),
    (131_072, 20.9, 7.03, 6.76, 34.7),
    (262_144, 11.8, 3.61, 3.34, 18.7),
    (393_216, 8.83, 2.43, 2.22, 13.5),
    (524_288, 5.73, 1.89, 1.67, 9.29),
    (786_432, 4.70, 1.27, 1.11, 7.09),
];
/// Table 9 Lonestar (1024 x 384 x 1536).
pub const TABLE9_LONESTAR: &[T9Row] = &[
    (192, 9.53, 2.06, 3.00, 14.6),
    (384, 4.70, 1.04, 1.50, 7.24),
    (768, 2.38, 0.51, 0.75, 3.65),
    (1536, 1.29, 0.26, 0.37, 1.93),
];
/// Table 9 Stampede (2048 x 512 x 4096).
pub const TABLE9_STAMPEDE: &[T9Row] = &[
    (512, 18.9, 5.30, 6.85, 31.0),
    (1024, 10.9, 2.68, 3.40, 17.0),
    (2048, 7.60, 1.36, 1.72, 10.7),
    (4096, 3.83, 0.67, 0.84, 5.35),
];
/// Table 9 Blue Waters (2048 x 1024 x 2048).
pub const TABLE9_BLUEWATERS: &[T9Row] = &[
    (2048, 17.9, 2.73, 3.53, 24.2),
    (4096, 16.2, 1.37, 1.76, 19.4),
    (8192, 16.2, 0.650, 0.880, 17.7),
    (16_384, 9.88, 0.356, 0.440, 10.7),
];

/// Table 10 Mira MPI (weak scaling: Nx per row, Ny = 1536, Nz = 12288).
pub const TABLE10_MIRA_MPI: &[(usize, usize, f64, f64, f64, f64)] = &[
    (65_536, 4608, 9.87, 3.30, 3.46, 16.6),
    (131_072, 9216, 13.6, 3.52, 3.45, 20.6),
    (262_144, 18_432, 13.6, 4.02, 3.44, 21.1),
    (393_216, 27_648, 16.0, 4.41, 3.43, 23.9),
    (524_288, 36_864, 13.5, 5.50, 3.48, 22.5),
    (786_432, 55_296, 13.7, 7.28, 3.50, 24.5),
];
/// Table 10 Mira hybrid.
pub const TABLE10_MIRA_HYBRID: &[(usize, usize, f64, f64, f64, f64)] = &[
    (65_536, 4608, 9.83, 3.17, 3.34, 16.3),
    (131_072, 9216, 10.3, 3.36, 3.34, 17.0),
    (262_144, 18_432, 11.8, 3.61, 3.34, 18.7),
    (393_216, 27_648, 13.4, 4.14, 3.34, 20.8),
    (524_288, 36_864, 11.8, 5.08, 3.35, 20.2),
    (786_432, 55_296, 14.5, 7.60, 3.34, 25.5),
];
/// Table 10 Lonestar weak scaling (Nx sweep 512..4096).
pub const TABLE10_LONESTAR: &[(usize, usize, f64, f64, f64, f64)] = &[
    (192, 512, 4.73, 1.00, 1.51, 7.24),
    (384, 1024, 4.70, 1.04, 1.50, 7.24),
    (768, 2048, 4.70, 1.17, 1.50, 7.37),
    (1536, 4096, 5.01, 1.31, 1.50, 7.81),
];
/// Table 10 Stampede weak scaling.
pub const TABLE10_STAMPEDE: &[(usize, usize, f64, f64, f64, f64)] = &[
    (512, 512, 4.85, 1.21, 1.71, 7.77),
    (1024, 1024, 5.66, 1.24, 1.75, 8.65),
    (2048, 2048, 6.78, 1.34, 1.73, 9.86),
    (4096, 4096, 7.11, 1.47, 1.73, 10.3),
];
/// Table 10 Blue Waters weak scaling.
pub const TABLE10_BLUEWATERS: &[(usize, usize, f64, f64, f64, f64)] = &[
    (2048, 1024, 11.1, 1.26, 1.76, 14.1),
    (4096, 2048, 16.2, 1.37, 1.76, 19.4),
    (8192, 4096, 20.44, 1.49, 1.76, 23.7),
    (16_384, 8192, 25.66, 1.70, 1.76, 29.1),
];

/// Table 11: cores, MPI total, hybrid total (strong scaling).
pub const TABLE11_STRONG: &[(usize, Option<f64>, f64)] = &[
    (65_536, None, 67.2),
    (131_072, Some(41.2), 34.7),
    (262_144, Some(21.1), 18.7),
    (393_216, Some(13.8), 13.5),
    (524_288, Some(10.6), 9.29),
    (786_432, Some(7.06), 7.09),
];
/// Table 11 weak-scaling block.
pub const TABLE11_WEAK: &[(usize, f64, f64)] = &[
    (65_536, 16.6, 16.3),
    (131_072, 20.6, 17.0),
    (262_144, 21.1, 18.7),
    (393_216, 23.9, 20.8),
    (524_288, 22.5, 20.2),
    (786_432, 24.5, 25.5),
];

/// Section 7 aggregate rates at 786,432 Mira cores: Tflops over the
/// whole timestep, its fraction of peak, Tflops counting only on-node
/// compute time, its fraction of peak.
pub const SECTION7_RATES: (f64, f64, f64, f64) = (271.0, 0.027, 906.0, 0.090);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_are_internally_consistent() {
        // Table 9 totals equal the sum of their phases to rounding
        for rows in [TABLE9_MIRA_MPI, TABLE9_MIRA_HYBRID, TABLE9_LONESTAR] {
            for &(cores, tr, fft, ns, total) in rows {
                assert!(
                    (tr + fft + ns - total).abs() < 0.15 * total,
                    "cores {cores}: {tr}+{fft}+{ns} != {total}"
                );
            }
        }
        // Table 11 strong-scaling columns mirror Table 9 totals
        for (&(c1, mpi, hyb), &(c9, .., total9)) in
            TABLE11_STRONG.iter().skip(1).zip(TABLE9_MIRA_MPI)
        {
            assert_eq!(c1, c9);
            assert_eq!(mpi, Some(total9));
            assert!(hyb > 0.0);
        }
    }

    #[test]
    fn custom_solver_speedup_is_about_four_times() {
        for &(bw, _mkl_r, mkl_c, custom_l, essl, custom_m) in TABLE1 {
            assert!(mkl_c / custom_l > 3.5, "Lonestar bw={bw}");
            assert!(essl / custom_m > 3.4, "Mira bw={bw}");
        }
    }
}
