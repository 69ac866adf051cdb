#!/usr/bin/env bash
# The test-only surface of libfloatfl: out-of-line functions the library
# defines that no program links.
#
#   .github/scripts/test_only_surface.sh [build-dir]   (default: build-surface)
#
# The programs are the bench and example binaries, built at -O0 with one
# section per function and linked with --gc-sections, plus perfbench and
# perfbench_selftest, built the same way at -O1 -fno-inline (perfbench's main
# refuses to run unoptimised). A function the linker keeps in none of them
# only tests call.
#
# Fails when that list differs from the allowlist next to this script: a new
# entry means src/ grew a function no program runs; a stale entry (now linked,
# or gone) must be deleted from the allowlist, so the list only shrinks.
#
# Also reports, without gating, the header-only functions in no program: the
# floatfl:: functions that one translation unit including every src/ header
# emits under -fkeep-inline-functions.
set -euo pipefail
export LC_ALL=C

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
allow="$root/.github/scripts/test_only_surface.allow"
out="$(realpath -m "${1:-$root/build-surface}")"
jobs="$(nproc)"
sections="-ffunction-sections -fdata-sections"
mkdir -p "$out"

# Demangled names, one per line, with std::string spelled as such.
names() {
  sed -e 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g' |
    sort -u
}

# Each bench/ and examples/ source is one program of the same name.
programs=()
binaries=("$out/perfbench/perfbench" "$out/perfbench/perfbench_selftest")
for f in "$root"/bench/*.cpp "$root"/examples/*.cpp; do
  name="$(basename "$f" .cpp)"
  programs+=("$name")
  binaries+=("$out/programs/$(basename "$(dirname "$f")")/$name")
done

cmake -S "$root" -B "$out/programs" -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
  -DCMAKE_CXX_FLAGS="$sections" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections > /dev/null
cmake --build "$out/programs" -j "$jobs" --target "${programs[@]}" > /dev/null

cmake -S "$root/perfbench" -B "$out/perfbench" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG="-O1 -fno-inline" -DCMAKE_CXX_FLAGS="$sections" \
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections > /dev/null
cmake --build "$out/perfbench" -j "$jobs" --target perfbench perfbench_selftest > /dev/null

echo "programs: ${#binaries[@]}"

for b in "${binaries[@]}"; do
  nm -C --defined-only "$b" | cut -d' ' -f3-
done | names > "$out/linked.txt"

nm -C --defined-only "$out/programs/src/libfloatfl.a" | awk '$2 == "T"' | cut -d' ' -f3- |
  names > "$out/defined.txt"
comm -23 "$out/defined.txt" "$out/linked.txt" > "$out/out_of_line.txt"

# Header-only functions, reported only.
(cd "$root" && find src -name '*.h' | sort | sed 's/.*/#include "&"/') > "$out/all_headers.cc"
"${CXX:-c++}" -std=c++20 -O0 -fkeep-inline-functions -I "$root" -c "$out/all_headers.cc" \
  -o "$out/all_headers.o"
nm -C --defined-only "$out/all_headers.o" | awk '$2 ~ /^[TtWw]$/' | cut -d' ' -f3- |
  grep '^floatfl::' | names | comm -23 - "$out/linked.txt" > "$out/header_only.txt"
echo "header-only functions in no program: $(wc -l < "$out/header_only.txt")" \
  "(listed in $out/header_only.txt)"

{ grep -v -e '^#' -e '^$' "$allow" || true; } | names > "$out/allowed.txt"
echo "out-of-line functions in no program: $(wc -l < "$out/out_of_line.txt")" \
  "(allowlist: $(wc -l < "$out/allowed.txt"))"
status=0
if comm -23 "$out/out_of_line.txt" "$out/allowed.txt" | grep .; then
  echo "FAIL: the functions above are defined in src/ but no program links them;" \
    "delete them, or move a test-only helper into tests/" >&2
  status=1
fi
if comm -13 "$out/out_of_line.txt" "$out/allowed.txt" | grep .; then
  echo "FAIL: the allowlist entries above are linked by a program or no longer" \
    "exist; delete them from $allow" >&2
  status=1
fi
exit "$status"
