#!/bin/sh
# The weak-symbol rule (src/util/simd_kernels.inl): the two translation
# units built above the baseline ISA, simd_kernels_avx2.cpp and
# simd_kernels_avx512.cpp, must define no weak or unique symbol (nm type
# W, V or u) — the linker could pick such a copy for baseline code — and
# must export nothing but their kernel table.  Two kinds of data symbol
# that sanitizer builds add are exempt, as they hold no code:
# DW.ref.__gxx_personality_v0, the pointer to the exception personality
# routine, and AddressSanitizer's __odr_asan.* marker of the table.
#
# usage: simd_isa_symbols_test.sh /path/to/libanc.a
set -eu

LIBRARY=${1:?usage: simd_isa_symbols_test.sh /path/to/libanc.a}
SYMBOLS=$(nm -A -C --defined-only "$LIBRARY")

for ISA in avx2 avx512; do
    # "libanc.a:member.o:value TYPE name" -> "TYPE name"
    MEMBER=$(printf '%s\n' "$SYMBOLS" | grep ":simd_kernels_$ISA\.cpp\.o:" \
        | sed 's/^[^ ]* //' | grep -Ev '^. (DW\.ref\.|__odr_asan\.)') || true
    if [ -z "$MEMBER" ]; then
        echo "FAIL: no simd_kernels_$ISA member in $LIBRARY" >&2
        exit 1
    fi
    WEAK=$(printf '%s\n' "$MEMBER" | grep -E '^[WVu] ') || true
    if [ -n "$WEAK" ]; then
        echo "FAIL: simd_kernels_$ISA defines weak or unique symbols:" >&2
        echo "$WEAK" >&2
        exit 1
    fi
    EXPORTED=$(printf '%s\n' "$MEMBER" | grep -E '^[A-Z] ' | cut -d' ' -f2-)
    if [ "$EXPORTED" != "anc::simd::detail::${ISA}_kernels" ]; then
        echo "FAIL: simd_kernels_$ISA must export only anc::simd::detail::${ISA}_kernels," \
             "exports:" >&2
        echo "$EXPORTED" >&2
        exit 1
    fi
done
echo "simd_kernels_avx2 and simd_kernels_avx512 export only their tables"
