#include "src/apps/rootfs_cache.h"

#include <functional>
#include <sstream>

namespace lupine::apps {

std::string RootfsCache::CacheKey(const ContainerImage& image,
                                  const RootfsOptions& options) {
  // Canonical text over every image field the built blob depends on. Field
  // and element separators are control bytes that cannot appear in the
  // values, so distinct images cannot serialize identically. env is a
  // std::map, already in sorted order.
  std::ostringstream canon;
  canon << image.name << '\x1f' << image.app << '\x1f';
  for (const auto& arg : image.entrypoint) {
    canon << arg << '\x1e';
  }
  canon << '\x1f';
  for (const auto& [key, value] : image.env) {
    canon << key << '=' << value << '\x1e';
  }
  canon << '\x1f';
  for (const auto& dir : image.setup_dirs) {
    canon << dir << '\x1e';
  }
  canon << '\x1f' << image.mounts_proc << ';' << image.needs_entropy << ';'
        << image.ulimit_nofile;
  // The option axis stays outside the digest so keys are debuggable: the
  // same image with and without the KML musl is visibly two entries.
  return std::to_string(std::hash<std::string>{}(canon.str())) +
         (options.kml_libc ? ";kml=1" : ";kml=0");
}

RootfsCache::ImagePtr RootfsCache::GetOrBuild(const ContainerImage& image,
                                              const RootfsOptions& options) {
  return store_
      .GetOrCompute(CacheKey(image, options),
                    [&]() -> Result<ImagePtr> {
                      return std::make_shared<const guestos::RootfsImage>(
                          BuildAppRootfs(image, options));
                    })
      .take();
}

void RootfsCache::PublishMetrics(telemetry::MetricRegistry& registry) const {
  const Stats s = stats();
  auto set = [&registry](const char* name, uint64_t value) {
    registry.GetGauge(name).Set(static_cast<int64_t>(value));
  };
  set("rootfscache.requests", s.requests);
  set("rootfscache.builds", s.builds);
  set("rootfscache.hits", s.hits);
  set("rootfscache.invalidations", s.invalidations);
  set("rootfscache.evictions", s.evictions);
  set("rootfscache.bytes_evicted", s.bytes_evicted);
  set("rootfscache.bytes_stored", s.bytes_stored);
  set("rootfscache.bytes_pinned", s.bytes_pinned);
  set("rootfscache.entries", s.entries);
}

}  // namespace lupine::apps
