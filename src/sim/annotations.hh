/**
 * @file
 * Clang thread-safety annotation macros.
 *
 * These wrap Clang's capability-analysis attributes so the compiler
 * itself checks the repo's locking contracts: a field marked
 * VIP_GUARDED_BY(m) may only be touched while `m` is held, a function
 * marked VIP_REQUIRES(m) may only be called with `m` held, and a
 * violation is a *compile error* under `-Wthread-safety
 * -Werror=thread-safety` (the CI clang leg). Under GCC (which has no
 * such analysis) every macro expands to nothing, so the annotations
 * cost zero and change nothing at runtime.
 *
 * The annotated lock types that carry these attributes — vip::Mutex,
 * vip::LockGuard, vip::CondVar — live in sim/mutex.hh; use those, not
 * raw std::mutex, for any state shared between host threads.
 * (libstdc++'s std::mutex is not annotated, so the analysis cannot
 * see through it.)
 *
 * Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
 * — the macro set below is the canonical mapping from that page,
 * prefixed VIP_ to keep the repo grep-able.
 */

#ifndef VIP_SIM_ANNOTATIONS_HH
#define VIP_SIM_ANNOTATIONS_HH

#if defined(__clang__)
#define VIP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define VIP_THREAD_ANNOTATION(x)  // no-op: GCC has no capability analysis
#endif

/** Class attribute: instances are lockable capabilities ("mutex"). */
#define VIP_CAPABILITY(x) VIP_THREAD_ANNOTATION(capability(x))

/** Class attribute: RAII object that acquires on construction and
 *  releases on destruction (std::lock_guard shape). */
#define VIP_SCOPED_CAPABILITY VIP_THREAD_ANNOTATION(scoped_lockable)

/** Field attribute: reads/writes require holding the capability. */
#define VIP_GUARDED_BY(x) VIP_THREAD_ANNOTATION(guarded_by(x))

/** Field attribute: the *pointee* of this pointer is guarded. */
#define VIP_PT_GUARDED_BY(x) VIP_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function attribute: caller must hold the capability. */
#define VIP_REQUIRES(...)                                                   \
    VIP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function attribute: acquires the capability (must not be held). */
#define VIP_ACQUIRE(...)                                                    \
    VIP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function attribute: releases the capability (must be held). */
#define VIP_RELEASE(...)                                                    \
    VIP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function attribute: caller must NOT hold the capability. */
#define VIP_EXCLUDES(...) VIP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function attribute: returns a reference to the capability. */
#define VIP_RETURN_CAPABILITY(x) VIP_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch for functions the analysis cannot model (condition
 *  variable wait re-acquisition, test scaffolding). Every use needs a
 *  comment saying why. */
#define VIP_NO_THREAD_SAFETY_ANALYSIS                                       \
    VIP_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif // VIP_SIM_ANNOTATIONS_HH
