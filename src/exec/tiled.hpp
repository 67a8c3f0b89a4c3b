// Multi-threaded tiled execution of the separable blur: row-band
// decomposition with a halo sized by the kernel radius — the same
// restructuring discipline §III.B applies to the FPGA (decompose the 2D
// problem so every worker touches a bounded local window) applied to the
// host CPU.
//
// Each worker owns a contiguous band of output rows. The horizontal pass
// is row-local, so bands are independent; the vertical pass reads up to
// `radius` rows of the intermediate plane beyond the band's edges (the
// halo), which neighbouring workers produce — so the tiled blur runs two
// run_bands phases, horizontal then vertical, and the join between them is
// the halo exchange. Taps accumulate in the same order as the
// single-threaded golden models, so output is bit-identical for every
// thread count.
//
// run_bands is the one intra-frame fan-out of the whole stack: the fused
// streaming engine (tonemap::blur_fused_stream / tone_map_fused) runs its
// halo-recomputing bands through it too.
#pragma once

#include <functional>

#include "image/image.hpp"
#include "tonemap/blur.hpp"
#include "tonemap/kernel.hpp"

namespace tmhls::exec {

/// Upper bound on worker threads (bands) per blur decomposition, whatever
/// the caller asks for: beyond this, bands are thinner than their halo is
/// worth.
inline constexpr int kMaxTiledBands = 64;

/// The band count a decomposition of `rows` rows at `threads` threads
/// runs: `threads` clamped to the row count and to kMaxTiledBands. Throws
/// InvalidArgument unless threads >= 1.
int clamp_bands(int threads, int rows);

/// Run `work(band)` once for every band in [0, bands), bands 1.. on
/// spawned threads and band 0 on the caller's thread, and return when all
/// of them have finished. Never fails on its own: a thread that cannot be
/// spawned leaves its band (and every later one) to run inline on the
/// caller. The first exception thrown by any band is rethrown after every
/// band has finished. Throws InvalidArgument unless bands >= 1.
void run_bands(int bands, const std::function<void(int)>& work);

/// Tiled float blur; bit-identical to blur_separable_float and
/// blur_streaming_float for any `threads` >= 1. The band count is
/// clamp_bands(threads, rows).
img::ImageF blur_tiled_float(const img::ImageF& src,
                             const tonemap::GaussianKernel& kernel,
                             int threads);

/// Tiled float blur through the SIMD pass primitives (vectorized across
/// pixels); bit-identical to blur_separable_float and blur_tiled_float for
/// any `threads` >= 1, with the same clamping.
img::ImageF blur_tiled_simd(const img::ImageF& src,
                            const tonemap::GaussianKernel& kernel,
                            int threads);

/// Tiled fixed-point blur; bit-identical to blur_streaming_fixed.
img::ImageF blur_tiled_fixed(const img::ImageF& src,
                             const tonemap::GaussianKernel& kernel,
                             const tonemap::FixedBlurConfig& cfg, int threads);

/// Row range [begin, end) of band `band` out of `bands` over `rows` rows:
/// contiguous, balanced to within one row. Exposed for tests.
struct RowBand {
  int begin = 0;
  int end = 0;
};
RowBand row_band(int rows, int bands, int band);

} // namespace tmhls::exec
