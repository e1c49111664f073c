#!/usr/bin/env bash
# Linker audit: lists the out-of-line functions defined in the src/ libraries
# that no non-test binary keeps, and fails when one of them is not on the
# allowlist.
#
# Every bench, example and tool, plus the perfbench project, is built at -O0
# with -ffunction-sections and linked with --gc-sections, so an executable
# defines exactly the functions its entry points can reach. A global text
# ('T') symbol of a lupine_* library that no such executable defines is
# unreached. Header-inline and template code is emitted weak ('W') and is not
# audited.
#
# Usage: tools/unreached.sh [BUILD_DIR] [ALLOWLIST]
#   BUILD_DIR  scratch build tree (default: build-unreached in the repo root;
#              the perfbench tree goes to BUILD_DIR/perfbench)
#   ALLOWLIST  kept symbols, one per line as `<demangled symbol>  # <reason>`
#              (default: tools/unreached_allowlist.txt)
#
# Exit codes: 0 every unreached symbol is allowlisted, 1 an unreached symbol is
# missing from the allowlist or an allowlisted symbol is reached or gone,
# 2 configure or build failure.
set -euo pipefail
export LC_ALL=C

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$root/build-unreached}"
allowlist="${2:-$root/tools/unreached_allowlist.txt}"
jobs="$(nproc 2>/dev/null || echo 2)"

flags=(-G "Unix Makefiles"
       -DCMAKE_BUILD_TYPE=Debug
       -DCMAKE_CXX_FLAGS_DEBUG=-O0
       -DCMAKE_CXX_FLAGS=-ffunction-sections
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

mkdir -p "$build"
log="$build/unreached.log"
# Runs one configure or build step, showing its log only when it fails.
step() {
  "$@" > "$log" 2>&1 || { tail -n 50 "$log"; exit 2; }
}
step cmake -S "$root" -B "$build" "${flags[@]}"
# The bench, examples and tools directories hold every non-test executable.
for dir in bench examples tools; do
  step make -C "$build/$dir" -j"$jobs"
done
step cmake -S "$root/perfbench" -B "$build/perfbench" "${flags[@]}"
step cmake --build "$build/perfbench" --target perfbench -j"$jobs"

# `text_symbols T` lists global functions; `text_symbols '[Tt]'` also counts
# the local ones, since a hidden global (the fiber switch) links as local.
text_symbols() {
  local kind="$1"
  shift
  nm -C --defined-only "$@" 2>/dev/null | sed -n "s/^[0-9a-f]* $kind //p" | sort -u
}

mapfile -t executables < <(
  find "$build/bench" "$build/examples" "$build/tools" -maxdepth 1 -type f \
       -perm -u+x | sort
  echo "$build/perfbench/perfbench")
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

text_symbols T "$build"/src/*/liblupine_*.a > "$tmp/defined"
text_symbols '[Tt]' "${executables[@]}" > "$tmp/kept"
comm -23 "$tmp/defined" "$tmp/kept" > "$tmp/unreached"
sed -e '/^[[:space:]]*#/d' -e '/^[[:space:]]*$/d' -e 's/[[:space:]]*#.*$//' \
    "$allowlist" | sort -u > "$tmp/allowed"

echo "unreached: $(wc -l < "$tmp/unreached") of $(wc -l < "$tmp/defined")" \
     "functions defined in src/ libraries, over ${#executables[@]} binaries"
status=0
if comm -23 "$tmp/unreached" "$tmp/allowed" | grep . > "$tmp/missing"; then
  echo "not on the allowlist ($allowlist):"
  sed 's/^/  /' "$tmp/missing"
  status=1
fi
if comm -13 "$tmp/unreached" "$tmp/allowed" | grep . > "$tmp/stale"; then
  echo "allowlisted but reached or no longer defined:"
  sed 's/^/  /' "$tmp/stale"
  status=1
fi
exit "$status"
