//! Pencil decomposition and global data transposes.
//!
//! The DNS decomposes its 3D data over a `PA x PB` process grid (section
//! 2.2, figure 2). Each process owns a "pencil": all of one axis, blocks
//! of the other two. Changing pencil orientation is a *global transpose*:
//! pack per-destination blocks, exchange all-to-all inside one of the two
//! sub-communicators, and locally reorder — the `A(i,j,k) -> A(j,k,i)`
//! kernel whose memory-bandwidth behaviour Table 4 studies.
//!
//! * [`decomp`] — 1D block decompositions (uneven sizes supported).
//! * [`reorder`] — on-node transpose kernels, naive and cache-blocked.
//! * [`transpose`] — the distributed transpose plan over a communicator,
//!   exchanging through one `MPI_alltoall`.

#![deny(missing_docs)]
// Indexed loops mirror the textbook statements of the numerical
// algorithms (banded elimination, butterflies, stencils); iterator
// rewrites of these kernels obscure the maths without helping codegen.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::type_complexity)]

pub mod decomp;
pub mod reorder;
pub mod transpose;

pub use decomp::{block_len, block_start, Block};
pub use transpose::{Room, RowsPlacement, TransposePlan};
