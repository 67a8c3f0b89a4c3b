#include "exec/tiled.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "tonemap/blur_passes.hpp"

namespace tmhls::exec {

namespace {

/// One horizontal or vertical float row-range pass (scalar or SIMD form).
using FloatRowPass = void (*)(const img::ImageF&, img::ImageF&,
                              const tonemap::GaussianKernel&, int, int);

/// The shared band scaffolding of the float blur: both the scalar and the
/// SIMD backends run the identical decomposition and halo exchange,
/// differing only in which pass primitives process the bands.
img::ImageF blur_tiled_float_with(const img::ImageF& src,
                                  const tonemap::GaussianKernel& kernel,
                                  int threads, FloatRowPass hpass,
                                  FloatRowPass vpass) {
  TMHLS_REQUIRE(src.channels() == 1, "blur expects a 1-channel image");
  const int h = src.height();
  const int bands = clamp_bands(threads, h);

  img::ImageF tmp(src.width(), h, 1);
  img::ImageF dst(src.width(), h, 1);
  run_bands(bands, [&](int band) {
    const RowBand r = row_band(h, bands, band);
    hpass(src, tmp, kernel, r.begin, r.end);
  });
  // Halo exchange: the vertical pass reads up to `radius` rows of `tmp`
  // owned by neighbouring bands; the join above publishes them.
  run_bands(bands, [&](int band) {
    const RowBand r = row_band(h, bands, band);
    vpass(tmp, dst, kernel, r.begin, r.end);
  });
  return dst;
}

// Default-lane-width adapters matching the FloatRowPass signature.
void hpass_simd_default(const img::ImageF& src, img::ImageF& dst,
                        const tonemap::GaussianKernel& kernel, int y_begin,
                        int y_end) {
  tonemap::blur_hpass_float_rows_simd(src, dst, kernel, y_begin, y_end);
}

void vpass_simd_default(const img::ImageF& tmp, img::ImageF& dst,
                        const tonemap::GaussianKernel& kernel, int y_begin,
                        int y_end) {
  tonemap::blur_vpass_float_rows_simd(tmp, dst, kernel, y_begin, y_end);
}

} // namespace

int clamp_bands(int threads, int rows) {
  TMHLS_REQUIRE(threads >= 1,
                "row bands: threads must be >= 1, got " +
                    std::to_string(threads));
  return std::min({threads, rows, kMaxTiledBands});
}

void run_bands(int bands, const std::function<void(int)>& work) {
  TMHLS_REQUIRE(bands >= 1, "run_bands: bands must be >= 1, got " +
                                std::to_string(bands));
  std::exception_ptr failure;
  std::mutex failure_mutex;
  auto guarded = [&](int band) {
    try {
      work(band);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(failure_mutex);
      if (!failure) failure = std::current_exception();
    }
  };

  // Bands [1, spawned) get their own thread. Spawning stops at the first
  // thread the system refuses (fault site "exec.bands.spawn" models that
  // refusal); the caller then runs band 0 and every band left over.
  std::vector<std::thread> helpers;
  int spawned = 1;
  try {
    helpers.reserve(static_cast<std::size_t>(bands - 1));
    for (; spawned < bands; ++spawned) {
      if (fault::should_fail("exec.bands.spawn")) break;
      helpers.emplace_back(guarded, spawned);
    }
  } catch (...) {
    // Resource exhaustion: the remaining bands run inline below.
  }
  guarded(0);
  for (int band = spawned; band < bands; ++band) guarded(band);
  for (std::thread& t : helpers) t.join();
  if (failure) std::rethrow_exception(failure);
}

RowBand row_band(int rows, int bands, int band) {
  TMHLS_REQUIRE(rows >= 0 && bands >= 1 && band >= 0 && band < bands,
                "row_band: invalid decomposition");
  const int base = rows / bands;
  const int extra = rows % bands;
  RowBand r;
  r.begin = band * base + std::min(band, extra);
  r.end = r.begin + base + (band < extra ? 1 : 0);
  return r;
}

img::ImageF blur_tiled_float(const img::ImageF& src,
                             const tonemap::GaussianKernel& kernel,
                             int threads) {
  return blur_tiled_float_with(src, kernel, threads,
                               &tonemap::blur_hpass_float_rows,
                               &tonemap::blur_vpass_float_rows);
}

img::ImageF blur_tiled_simd(const img::ImageF& src,
                            const tonemap::GaussianKernel& kernel,
                            int threads) {
  return blur_tiled_float_with(src, kernel, threads, &hpass_simd_default,
                               &vpass_simd_default);
}

img::ImageF blur_tiled_fixed(const img::ImageF& src,
                             const tonemap::GaussianKernel& kernel,
                             const tonemap::FixedBlurConfig& cfg,
                             int threads) {
  TMHLS_REQUIRE(src.channels() == 1, "blur expects a 1-channel image");
  const int w = src.width();
  const int h = src.height();
  const int bands = clamp_bands(threads, h);
  const tonemap::FixedBlurPlan plan(kernel, cfg);

  std::vector<std::int64_t> qsrc(src.pixel_count());
  std::vector<std::int64_t> hout(src.pixel_count());
  img::ImageF dst(w, h, 1);
  // Quantisation and the horizontal pass are row-local to the band; the
  // join before the vertical pass is the halo exchange.
  run_bands(bands, [&](int band) {
    const RowBand r = row_band(h, bands, band);
    plan.quantise_rows(src, qsrc, r.begin, r.end);
    tonemap::blur_hpass_fixed_rows(qsrc, hout, w, h, plan, r.begin, r.end);
  });
  run_bands(bands, [&](int band) {
    const RowBand r = row_band(h, bands, band);
    tonemap::blur_vpass_fixed_rows(hout, dst, w, h, plan, r.begin, r.end);
  });
  return dst;
}

} // namespace tmhls::exec
