/**
 * @file
 * Writing your own VIP kernel with the AsmBuilder: a k-nearest-
 * centroid classifier, exercising m.v compositions beyond the paper's
 * two workloads — the programmability argument of Table I.
 *
 *   $ ./examples/custom_kernel
 *
 * For each query vector q and centroid matrix C (one centroid per
 * row), the kernel computes the L1 distance to every centroid with
 * two composed instructions per query:
 *   d+ = m.v.sub.add (C - q, accumulated)      [sum of differences]
 * is not an absolute value, so instead we use the standard max-trick:
 *   d  = m.v.max.add(C, q') + m.v.max.add(-C, -q') - sum(C) - sum(q)
 * Simpler and fully in-ISA: we compute squared-distance surrogates
 *   s = -2 * C q + ||C||^2     (argmin_s == argmin distance)
 * with one m.v.mul.add per query plus a precomputed per-centroid
 * bias — exactly how the FC kernel fuses its bias.
 */

#include <cstdio>

#include "isa/builder.hh"
#include "sim/rng.hh"
#include "system/simulation.hh"
#include "workloads/fixed.hh"

using namespace vip;

int
main()
{
    const unsigned DIM = 16, CENTROIDS = 8, QUERIES = 12;
    Rng rng(99);

    // Centroids, their squared norms, and queries.
    std::vector<Fx16> centroids(CENTROIDS * DIM), queries(QUERIES * DIM);
    for (auto &v : centroids)
        v = static_cast<Fx16>(rng.nextRange(-40, 40));
    for (auto &v : queries)
        v = static_cast<Fx16>(rng.nextRange(-40, 40));
    std::vector<Fx16> norm_bias(CENTROIDS);
    for (unsigned c = 0; c < CENTROIDS; ++c) {
        std::int64_t n = 0;
        for (unsigned d = 0; d < DIM; ++d) {
            const std::int64_t v = centroids[c * DIM + d];
            n += v * v;
        }
        norm_bias[c] = sat16(n / 2);  // (||C||^2)/2 keeps int16 range
    }

    SystemConfig cfg = makeSystemConfig(1, 1);
    cfg.pe.strictHazards = true;
    VipSystem sys(cfg);
    const Addr a_cent = sys.vaultBase(0);
    const Addr a_bias = a_cent + centroids.size() * 2 + 64;
    const Addr a_query = a_bias + norm_bias.size() * 2 + 64;
    const Addr a_out = a_query + queries.size() * 2 + 64;
    sys.dram().write(a_cent, centroids.data(), centroids.size() * 2);
    sys.dram().write(a_bias, norm_bias.data(), norm_bias.size() * 2);
    sys.dram().write(a_query, queries.data(), queries.size() * 2);

    // Scratchpad map.
    const unsigned SP_CENT = 0;                      // CENTROIDS x DIM
    const unsigned SP_BIAS = SP_CENT + CENTROIDS * DIM * 2;
    const unsigned SP_Q = SP_BIAS + CENTROIDS * 2;   // one query
    const unsigned SP_DOT = SP_Q + DIM * 2;          // scores
    const unsigned SP_OUT = SP_DOT + CENTROIDS * 2;  // running scores

    AsmBuilder b;
    b.movImm(1, DIM);
    b.setVl(1);
    b.movImm(2, CENTROIDS);
    b.setMr(2);
    b.movImm(3, SP_CENT);
    b.movImm(4, SP_BIAS);
    b.movImm(5, SP_Q);
    b.movImm(6, SP_DOT);
    b.movImm(7, SP_OUT);
    b.movImm(8, CENTROIDS);  // vector length for score math
    // Load centroids and biases once; they stay resident.
    b.movImm(10, static_cast<std::int64_t>(a_cent));
    b.movImm(11, static_cast<std::int64_t>(CENTROIDS * DIM));
    b.ldSram(3, 10, 11);
    b.movImm(10, static_cast<std::int64_t>(a_bias));
    b.ldSram(4, 10, 8);

    // Loop over queries.
    b.movImm(20, static_cast<std::int64_t>(a_query));  // query ptr
    b.movImm(21, static_cast<std::int64_t>(a_out));    // out ptr
    b.movImm(22, 2 * DIM);   // query stride
    b.movImm(23, 2 * CENTROIDS);
    b.movImm(24, 0);         // counter
    b.movImm(25, QUERIES);

    const auto loop = b.newLabel();
    b.bind(loop);
    b.ldSram(5, 20, 1);                      // fetch the query
    b.mv(VecOp::Mul, RedOp::Add, 6, 3, 5);   // dot(C_r, q) per row
    b.setVl(8);
    b.vdrain();                              // short vectors: fence
    b.vv(VecOp::Sub, 7, 4, 6);               // ||C||^2/2 - dot
    b.vdrain();
    b.stSram(7, 21, 8);
    b.setVl(1);
    b.scalar(ScalarOp::Add, 20, 20, 22);
    b.scalar(ScalarOp::Add, 21, 21, 23);
    b.addImm(24, 24, 1);
    b.branch(BranchCond::Lt, 24, 25, loop);
    b.memfence();
    b.halt();

    sys.pe(0).loadProgram(b.finish());

    const Cycles cycles = sys.run();
    std::printf("classified %u queries in %llu cycles "
                "(%.1f cycles/query)\n",
                QUERIES, static_cast<unsigned long long>(cycles),
                static_cast<double>(cycles) / QUERIES);

    // Reference check: argmin of (||C||^2/2 - dot) == nearest centroid
    // by squared distance.
    unsigned correct = 0;
    for (unsigned q = 0; q < QUERIES; ++q) {
        // Reference nearest centroid (exact arithmetic).
        unsigned ref_best = 0;
        std::int64_t ref_score = INT64_MAX;
        for (unsigned c = 0; c < CENTROIDS; ++c) {
            std::int64_t dist = 0;
            for (unsigned d = 0; d < DIM; ++d) {
                const std::int64_t diff = centroids[c * DIM + d] -
                                          queries[q * DIM + d];
                dist += diff * diff;
            }
            if (dist < ref_score) {
                ref_score = dist;
                ref_best = c;
            }
        }
        // Simulated scores.
        unsigned got_best = 0;
        Fx16 got_score = INT16_MAX;
        for (unsigned c = 0; c < CENTROIDS; ++c) {
            const Fx16 s = sys.dram().load<Fx16>(a_out +
                                                 (q * CENTROIDS + c) *
                                                     2);
            if (s < got_score) {
                got_score = s;
                got_best = c;
            }
        }
        if (got_best == ref_best)
            ++correct;
    }
    std::printf("nearest-centroid agreement with exact reference: "
                "%u/%u\n", correct, QUERIES);
    return correct == QUERIES ? 0 : 1;
}
