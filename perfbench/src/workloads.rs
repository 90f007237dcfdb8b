//! The benchmark's workloads and the one function that configures every
//! mapper it runs.

use rewire_arch::{presets, Cgra};
use rewire_core::{RewireConfig, RewireMapper};
use rewire_mappers::{ExactSatMapper, MapLimits, Mapper, PathFinderMapper};
use std::time::Duration;

/// Workload seed used when `--seed` is not given. It draws the request
/// order and the golden-model stimulus.
pub const DEFAULT_SEED: u64 = 1;

/// Mapping seed used when `--map-seed` is not given; forwarded to
/// `MapLimits::seed` for every item. The held-out mapping seed, kept out
/// of tuning, is in the README.
pub const DEFAULT_MAP_SEED: u64 = 0xC0FFEE;

/// Wall-clock ceiling per explored II. Work caps end every attempt long
/// before it; an attempt that reaches it fails its item (`ceiling`).
pub const II_CEILING: Duration = Duration::from_secs(30);

/// Wall-clock ceiling for one item's whole II sweep, guarded the same way.
pub const ITEM_CEILING: Duration = Duration::from_secs(60);

/// Iterations the golden-model check simulates per mapped item.
pub const VERIFY_ITERATIONS: u32 = 8;

/// Which mapper a workload drives.
#[derive(Clone, Copy, Debug)]
pub enum MapperKind {
    /// Rewire, one restart worker.
    Rewire,
    /// The PF* negotiated-congestion baseline.
    PathFinder,
    /// The exact SAT backend.
    Exact,
}

/// A fixed set of (kernel, fabric) items mapped by one mapper.
#[derive(Debug)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// The mapper every item runs through.
    pub mapper: MapperKind,
    /// Fabric preset names; every kernel is mapped on each.
    pub fabrics: &'static [&'static str],
    /// Kernel names from the suite.
    pub kernels: &'static [&'static str],
}

/// Every workload, by name.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "rewire-8x8",
        mapper: MapperKind::Rewire,
        fabrics: &["paper_8x8_r4"],
        kernels: &[
            "lu",
            "sha",
            "histogram",
            "kmeans",
            "mvt",
            "susan",
            "fft",
            "gemver",
            "trmm",
            "doitgen",
            "cholesky",
        ],
    },
    Workload {
        name: "rewire-mesh64",
        mapper: MapperKind::Rewire,
        fabrics: &["mesh64"],
        kernels: &[
            "bicg",
            "mvt",
            "fir",
            "viterbi",
            "syrk",
            "stencil3d",
            "sha",
            "dct8",
            "histogram",
            "backprop",
            "conv2d",
            "atax",
            "cholesky",
        ],
    },
    Workload {
        name: "pf-4x4",
        mapper: MapperKind::PathFinder,
        fabrics: &["paper_4x4_r4", "paper_4x4_r2"],
        kernels: &[
            "gramschmidt",
            "ludcmp",
            "lu",
            "gemver",
            "cholesky",
            "gesummv",
            "atax",
            "bicg",
            "mvt",
            "fir",
            "jacobi2d",
            "viterbi",
            "conv2d",
            "sobel",
            "sha",
            "fft",
        ],
    },
    Workload {
        name: "exact-4x4",
        mapper: MapperKind::Exact,
        fabrics: &["paper_4x4_r4", "paper_4x4_r1"],
        kernels: &[
            "fir",
            "atax",
            "bicg",
            "mvt",
            "gesummv",
            "gemm",
            "viterbi",
            "histogram",
            "gramschmidt",
        ],
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Builds a fabric preset by name.
pub fn fabric(name: &str) -> Cgra {
    match name {
        "paper_4x4_r4" => presets::paper_4x4_r4(),
        "paper_4x4_r2" => presets::paper_4x4_r2(),
        "paper_4x4_r1" => presets::paper_4x4_r1(),
        "paper_8x8_r4" => presets::paper_8x8_r4(),
        "mesh64" => presets::mesh64(),
        other => panic!("workload names an unknown fabric preset {other:?}"),
    }
}

/// The mapper and limits for one item. Every configuration the benchmark
/// uses is made here, so a change to budgets or policies edits this
/// function and no workload.
///
/// Work caps end every search: Rewire's restart cap, PF*'s iteration cap
/// and the exact backend's conflict budget. The wall-clock budgets are
/// ceilings that the harness treats as failures when they fire.
pub fn configure(kind: MapperKind, mii: u32, seed: u64) -> (Box<dyn Mapper>, MapLimits) {
    let (mapper, ii_span): (Box<dyn Mapper>, u32) = match kind {
        MapperKind::Rewire => (
            Box::new(RewireMapper::with_config(RewireConfig {
                max_restarts_per_ii: 2,
                portfolio_width: 1,
                ..RewireConfig::default()
            })),
            3,
        ),
        MapperKind::PathFinder => (Box::new(PathFinderMapper::new()), 3),
        MapperKind::Exact => (Box::new(ExactSatMapper::new()), 2),
    };
    let limits = MapLimits {
        max_ii: mii + ii_span,
        ii_time_budget: II_CEILING,
        seed,
        total_time_budget: Some(ITEM_CEILING),
    };
    (mapper, limits)
}
