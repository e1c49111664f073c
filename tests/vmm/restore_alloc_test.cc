// Heap allocations per snapshot restore and per cold boot of each serving
// tenant (nginx, redis and postgres, the serve_openloop mix), counted by
// replacing the global operator new, which is why this test is a binary of
// its own. Both launch paths share the kernel image and start the guest's
// VFS from the tree the rootfs image mounted once, and neither keeps a copy
// of the boot's phases beside the kernel's BootTrace, so they allocate only
// the guest's own state: the kernel's subsystems, the boot's phase list and
// console, and init's process and fiber. The bound sits about 10% above the
// 34 allocations each tenant's restore makes, and each cold boot makes as
// many; a launch that rebuilds the tree or copies the kernel image makes
// twice as many or more.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/core/multik.h"
#include "src/core/snapshot_cache.h"
#include "src/guestos/snapshot.h"
#include "src/vmm/vm.h"

namespace {

thread_local size_t allocations = 0;

}  // namespace

// Every unaligned form, so each allocation and its release meet in
// malloc/free (a sanitizer's own forms must not free what these allocate).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* p = ::operator new(size, std::nothrow)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace lupine::vmm {
namespace {

constexpr Bytes kMemory = 128 * kMiB;  // The serving layer's guest RAM.

template <typename Fn>
size_t CountAllocations(Fn&& fn) {
  const size_t before = allocations;
  fn();
  return allocations - before;
}

TEST(RestoreAllocations, EachServingTenantRestoresUnderTheBound) {
  constexpr size_t kBound = 37;
  core::KernelCache cache;
  for (const char* app : {"nginx", "redis", "postgres"}) {
    SCOPED_TRACE(app);
    auto artifact = cache.GetOrBuild(app);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    auto booted = (*artifact)->Launch(kMemory);
    ASSERT_TRUE(booted->Boot().ok());
    const std::string key =
        core::SnapshotCache::Key((*artifact)->fingerprint, (*artifact)->rootfs_key, kMemory);
    auto snapshot = booted->Capture(key, app);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

    Result<std::unique_ptr<Vm>> restored = Status(Err::kInval, "not restored");
    const size_t per_restore =
        CountAllocations([&] { restored = Vm::Restore(snapshot.value()); });
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    std::unique_ptr<Vm> cold;
    const size_t per_cold_boot = CountAllocations([&] {
      cold = (*artifact)->Launch(kMemory);
      (void)cold->Boot();
    });
    std::printf("%s: %zu allocations per restore, %zu per cold boot\n", app, per_restore,
                per_cold_boot);
    EXPECT_LE(per_restore, kBound);
    EXPECT_LE(per_cold_boot, kBound);
  }
}

}  // namespace
}  // namespace lupine::vmm
