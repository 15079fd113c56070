// Load-time ISA dispatch for the bulk host kernels: the FP16 codec, the
// splitmix64 hash behind the synthetic gradients and the parameter init, and
// Adam.
//
// MLPO_KERNEL_CLONES asks GCC to compile the function it marks three times:
// for baseline x86-64 (SSE2), x86-64-v3 (AVX2) and x86-64-v4 (AVX-512). An
// ifunc resolver picks the widest clone the running CPU supports when the
// program loads, so the source and the call sites stay one code path. Every
// clone must produce the same bits as the baseline: the golden digests in
// the kernels-labelled tests pin them. That holds only when the compiler may
// not fuse a multiply and an add into an FMA (the v3/v4 clones have FMA and
// GCC contracts by default), so every TU that uses the macro is compiled
// with -ffp-contract=off (src/CMakeLists.txt; tools/check_invariants.py
// enforces both rules).
//
// Elsewhere the macro is empty and the kernels build for the target ISA
// only: ifuncs need ELF, and Clang is left out because no Clang build checks
// its clones against the digests. A tree built with -march at or above
// x86-64-v3 also gets no clones: it runs the ISA it was built for, which is
// how CI checks each ISA's code against the digests on any runner. So does
// a ThreadSanitizer build: GCC instruments the ifunc resolver, which runs
// while the program is being relocated, before the TSan runtime is up, and
// the process dies with SIGSEGV before main.
#pragma once

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__ELF__) && !defined(__AVX2__) && !defined(__SANITIZE_THREAD__)
#define MLPO_KERNEL_CLONES \
  __attribute__((target_clones("default", "arch=x86-64-v3", "arch=x86-64-v4")))
#else
#define MLPO_KERNEL_CLONES
#endif
