/**
 * @file
 * Reference CNN / MLP layers and the VGG-16 / VGG-19 network tables
 * (Sec. II-B, II-C).
 *
 * All arithmetic matches the simulated datapath: products and sums
 * accumulate in 64-bit and saturate to int16 at writeback; ReLU is a
 * max against zero. Feature maps are stored channel-major
 * ([c][y][x] = fmap[(c*H + y)*W + x]) and filters as
 * [out][in][ky][kx].
 */

#ifndef VIP_WORKLOADS_NN_HH
#define VIP_WORKLOADS_NN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "workloads/fixed.hh"

namespace vip {

/** A 3D feature map, channel-major. */
struct FeatureMap
{
    unsigned channels = 0;
    unsigned height = 0;
    unsigned width = 0;
    std::vector<Fx16> data;

    FeatureMap() = default;
    FeatureMap(unsigned c, unsigned h, unsigned w)
        : channels(c), height(h), width(w),
          data(static_cast<std::size_t>(c) * h * w, 0)
    {}

    std::size_t
    index(unsigned c, unsigned y, unsigned x) const
    {
        return (static_cast<std::size_t>(c) * height + y) * width + x;
    }

    Fx16 at(unsigned c, unsigned y, unsigned x) const
    {
        return data[index(c, y, x)];
    }

    Fx16 &at(unsigned c, unsigned y, unsigned x)
    {
        return data[index(c, y, x)];
    }
};

/** One layer of a VGG-style network. */
struct LayerDesc
{
    enum class Kind { Conv, Pool, Fc };

    Kind kind = Kind::Conv;
    std::string name;

    // Conv: kernel x kernel filters, stride 1, pad (kernel-1)/2.
    unsigned inChannels = 0;
    unsigned outChannels = 0;
    unsigned inHeight = 0;
    unsigned inWidth = 0;
    unsigned kernel = 3;

    // Pool: window x window, stride = window.
    unsigned window = 2;

    // Fc: inputs -> outputs.
    unsigned inputs = 0;
    unsigned outputs = 0;

    unsigned outHeight() const;
    unsigned outWidth() const;

    /** Multiply-accumulates (or comparisons for pool) in this layer. */
    std::uint64_t macs() const;

    /** ALU operations: 2 per MAC, 1 per pooled comparison. */
    std::uint64_t ops() const { return kind == Kind::Pool ? macs()
                                                          : 2 * macs(); }

    /**
     * Minimum DRAM traffic in bytes with 16-bit data: inputs read once,
     * weights read once, outputs written once (the paper's arithmetic-
     * intensity accounting for the roofline, Fig. 3).
     */
    std::uint64_t minBytesMoved() const;

    double
    arithmeticIntensity() const
    {
        return static_cast<double>(ops()) /
               static_cast<double>(minBytesMoved());
    }
};

/** Convolution + bias + ReLU (Eq. 3), stride 1, same padding. */
FeatureMap convLayer(const FeatureMap &in,
                     const std::vector<Fx16> &filters,
                     const std::vector<Fx16> &bias, unsigned out_channels,
                     unsigned kernel, bool relu = true);

/** Max pooling, window x window, stride = window. */
FeatureMap maxPool(const FeatureMap &in, unsigned window);

/** Fully-connected layer + bias, optional ReLU (Eq. 4). */
std::vector<Fx16> fcLayer(const std::vector<Fx16> &in,
                          const std::vector<Fx16> &weights,
                          const std::vector<Fx16> &bias, unsigned outputs,
                          bool relu = true);

/**
 * Convolution with the generated VIP kernel's exact partial-sum
 * structure: the m.v.mul.add unit emits a *saturated* partial per
 * filter column (kx) and per z-shard, and partials combine through
 * saturating v.v.add in kx-then-shard order, followed by bias and
 * ReLU. Identical to convLayer() whenever nothing saturates; the
 * simulator is verified against this bit-for-bit.
 *
 * @param z_shard  channels per shard (the per-vault slice, Sec. IV-B);
 *                 must divide in.channels.
 */
FeatureMap convLayerVip(const FeatureMap &in,
                        const std::vector<Fx16> &filters,
                        const std::vector<Fx16> &bias,
                        unsigned out_channels, unsigned kernel,
                        unsigned z_shard, bool relu = true);

/**
 * Fully-connected layer with the VIP kernel's partial structure: the
 * input is split into @p segments equal segments, each contributing a
 * saturated partial dot; partials combine in segment order, then bias
 * and optional ReLU (Sec. IV-C's three-pass scheme).
 */
std::vector<Fx16> fcLayerSegmented(const std::vector<Fx16> &in,
                                   const std::vector<Fx16> &weights,
                                   const std::vector<Fx16> &bias,
                                   unsigned outputs, unsigned segments,
                                   bool relu = true);

/** The 16- and 19-layer VGG configurations on 224x224 inputs. */
std::vector<LayerDesc> vgg16Layers();
std::vector<LayerDesc> vgg19Layers();

/** Small random tensors for deterministic test fixtures. */
std::vector<Fx16> randomWeights(std::size_t n, Rng &rng, int magnitude);

} // namespace vip

#endif // VIP_WORKLOADS_NN_HH
