#include "workloads/nn.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace vip {

unsigned
LayerDesc::outHeight() const
{
    switch (kind) {
      case Kind::Conv: return inHeight;  // stride 1, same padding
      case Kind::Pool: return inHeight / window;
      case Kind::Fc: return 1;
    }
    return 0;
}

unsigned
LayerDesc::outWidth() const
{
    switch (kind) {
      case Kind::Conv: return inWidth;
      case Kind::Pool: return inWidth / window;
      case Kind::Fc: return 1;
    }
    return 0;
}

std::uint64_t
LayerDesc::macs() const
{
    switch (kind) {
      case Kind::Conv:
        return static_cast<std::uint64_t>(outChannels) * outHeight() *
               outWidth() * inChannels * kernel * kernel;
      case Kind::Pool:
        return static_cast<std::uint64_t>(inChannels) * outHeight() *
               outWidth() * window * window;
      case Kind::Fc:
        return static_cast<std::uint64_t>(inputs) * outputs;
    }
    return 0;
}

std::uint64_t
LayerDesc::minBytesMoved() const
{
    constexpr unsigned b = sizeof(Fx16);
    switch (kind) {
      case Kind::Conv:
        return static_cast<std::uint64_t>(b) *
               (static_cast<std::uint64_t>(inChannels) * inHeight *
                    inWidth +
                static_cast<std::uint64_t>(outChannels) * inChannels *
                    kernel * kernel +
                outChannels +
                static_cast<std::uint64_t>(outChannels) * outHeight() *
                    outWidth());
      case Kind::Pool:
        return static_cast<std::uint64_t>(b) * inChannels *
               (static_cast<std::uint64_t>(inHeight) * inWidth +
                static_cast<std::uint64_t>(outHeight()) * outWidth());
      case Kind::Fc:
        return static_cast<std::uint64_t>(b) *
               (inputs + static_cast<std::uint64_t>(inputs) * outputs +
                2ull * outputs);
    }
    return 0;
}

FeatureMap
convLayer(const FeatureMap &in, const std::vector<Fx16> &filters,
          const std::vector<Fx16> &bias, unsigned out_channels,
          unsigned kernel, bool relu)
{
    vip_assert(kernel % 2 == 1, "even kernels unsupported");
    vip_assert(filters.size() == static_cast<std::size_t>(out_channels) *
                                     in.channels * kernel * kernel,
               "filter tensor size mismatch");
    vip_assert(bias.size() == out_channels, "bias size mismatch");

    const int pad = static_cast<int>(kernel) / 2;
    FeatureMap out(out_channels, in.height, in.width);

    for (unsigned oc = 0; oc < out_channels; ++oc) {
        const Fx16 *filt = filters.data() +
                           static_cast<std::size_t>(oc) * in.channels *
                               kernel * kernel;
        for (unsigned y = 0; y < in.height; ++y) {
            for (unsigned x = 0; x < in.width; ++x) {
                std::int64_t acc = bias[oc];
                for (unsigned ic = 0; ic < in.channels; ++ic) {
                    for (unsigned ky = 0; ky < kernel; ++ky) {
                        const int sy = static_cast<int>(y) +
                                       static_cast<int>(ky) - pad;
                        if (sy < 0 || sy >= static_cast<int>(in.height))
                            continue;
                        for (unsigned kx = 0; kx < kernel; ++kx) {
                            const int sx = static_cast<int>(x) +
                                           static_cast<int>(kx) - pad;
                            if (sx < 0 ||
                                sx >= static_cast<int>(in.width)) {
                                continue;
                            }
                            const Fx16 w =
                                filt[(static_cast<std::size_t>(ic) *
                                          kernel +
                                      ky) *
                                         kernel +
                                     kx];
                            acc += static_cast<std::int64_t>(w) *
                                   in.at(ic, static_cast<unsigned>(sy),
                                         static_cast<unsigned>(sx));
                        }
                    }
                }
                Fx16 v = sat16(acc);
                if (relu)
                    v = reluFx(v);
                out.at(oc, y, x) = v;
            }
        }
    }
    return out;
}

FeatureMap
maxPool(const FeatureMap &in, unsigned window)
{
    vip_assert(in.height % window == 0 && in.width % window == 0,
               "pool window must tile the feature map");
    FeatureMap out(in.channels, in.height / window, in.width / window);
    for (unsigned c = 0; c < in.channels; ++c) {
        for (unsigned y = 0; y < out.height; ++y) {
            for (unsigned x = 0; x < out.width; ++x) {
                Fx16 best = INT16_MIN;
                for (unsigned wy = 0; wy < window; ++wy) {
                    for (unsigned wx = 0; wx < window; ++wx) {
                        best = std::max(best, in.at(c, y * window + wy,
                                                    x * window + wx));
                    }
                }
                out.at(c, y, x) = best;
            }
        }
    }
    return out;
}

FeatureMap
convLayerVip(const FeatureMap &in, const std::vector<Fx16> &filters,
             const std::vector<Fx16> &bias, unsigned out_channels,
             unsigned kernel, unsigned z_shard, bool relu)
{
    vip_assert(kernel % 2 == 1, "even kernels unsupported");
    vip_assert(in.channels % z_shard == 0,
               "z_shard must divide the channel count");
    vip_assert(bias.size() == out_channels, "bias size mismatch");
    const unsigned shards = in.channels / z_shard;
    const int pad = static_cast<int>(kernel) / 2;
    FeatureMap out(out_channels, in.height, in.width);

    for (unsigned oc = 0; oc < out_channels; ++oc) {
        const Fx16 *filt = filters.data() +
                           static_cast<std::size_t>(oc) * in.channels *
                               kernel * kernel;
        for (unsigned y = 0; y < in.height; ++y) {
            for (unsigned x = 0; x < in.width; ++x) {
                // Shard-major, then kx-major saturated partials, the
                // order the kernel's v.v.add chain combines them.
                Fx16 total = 0;
                bool first = true;
                for (unsigned s = 0; s < shards; ++s) {
                    Fx16 shard_sum = 0;
                    bool shard_first = true;
                    for (unsigned kx = 0; kx < kernel; ++kx) {
                        const int sx = static_cast<int>(x) +
                                       static_cast<int>(kx) - pad;
                        std::int64_t acc = 0;
                        for (unsigned ky = 0; ky < kernel; ++ky) {
                            const int sy = static_cast<int>(y) +
                                           static_cast<int>(ky) - pad;
                            if (sx < 0 || sy < 0 ||
                                sx >= static_cast<int>(in.width) ||
                                sy >= static_cast<int>(in.height)) {
                                continue;
                            }
                            for (unsigned zc = 0; zc < z_shard; ++zc) {
                                const unsigned ic = s * z_shard + zc;
                                const Fx16 w =
                                    filt[(static_cast<std::size_t>(ic) *
                                              kernel +
                                          ky) *
                                             kernel +
                                         kx];
                                acc += static_cast<std::int64_t>(w) *
                                       in.at(ic,
                                             static_cast<unsigned>(sy),
                                             static_cast<unsigned>(sx));
                            }
                        }
                        const Fx16 partial = sat16(acc);
                        shard_sum = shard_first ? partial
                                                : addSat(shard_sum,
                                                         partial);
                        shard_first = false;
                    }
                    total = first ? shard_sum : addSat(total, shard_sum);
                    first = false;
                }
                Fx16 v = addSat(total, bias[oc]);
                if (relu)
                    v = reluFx(v);
                out.at(oc, y, x) = v;
            }
        }
    }
    return out;
}

std::vector<Fx16>
fcLayerSegmented(const std::vector<Fx16> &in,
                 const std::vector<Fx16> &weights,
                 const std::vector<Fx16> &bias, unsigned outputs,
                 unsigned segments, bool relu)
{
    vip_assert(in.size() % segments == 0,
               "segments must divide the input length");
    vip_assert(weights.size() ==
                   static_cast<std::size_t>(outputs) * in.size(),
               "weight matrix size mismatch");
    const std::size_t seg = in.size() / segments;
    std::vector<Fx16> out(outputs);
    for (unsigned o = 0; o < outputs; ++o) {
        const Fx16 *row = weights.data() +
                          static_cast<std::size_t>(o) * in.size();
        Fx16 total = 0;
        for (unsigned s = 0; s < segments; ++s) {
            const Fx16 partial = mulAddReduce(
                row + s * seg, in.data() + s * seg,
                static_cast<unsigned>(seg));
            total = s == 0 ? partial : addSat(total, partial);
        }
        Fx16 v = addSat(total, bias[o]);
        if (relu)
            v = reluFx(v);
        out[o] = v;
    }
    return out;
}

std::vector<Fx16>
fcLayer(const std::vector<Fx16> &in, const std::vector<Fx16> &weights,
        const std::vector<Fx16> &bias, unsigned outputs, bool relu)
{
    vip_assert(weights.size() ==
                   static_cast<std::size_t>(outputs) * in.size(),
               "weight matrix size mismatch");
    vip_assert(bias.size() == outputs, "bias size mismatch");
    std::vector<Fx16> out(outputs);
    for (unsigned o = 0; o < outputs; ++o) {
        // Matches m.v.mul.add (dot product, 64-bit accumulate) followed
        // by v.v.add of the bias.
        const Fx16 dot = mulAddReduce(weights.data() + static_cast<
                                          std::size_t>(o) * in.size(),
                                      in.data(),
                                      static_cast<unsigned>(in.size()));
        Fx16 v = addSat(dot, bias[o]);
        if (relu)
            v = reluFx(v);
        out[o] = v;
    }
    return out;
}

namespace {

std::vector<LayerDesc>
vggLayers(const std::vector<std::vector<unsigned>> &conv_blocks)
{
    std::vector<LayerDesc> layers;
    unsigned c = 3, h = 224, w = 224;
    unsigned block_no = 1;
    for (const auto &block : conv_blocks) {
        unsigned conv_no = 1;
        for (unsigned out_c : block) {
            LayerDesc l;
            l.kind = LayerDesc::Kind::Conv;
            l.name = "c" + std::to_string(block_no) + "_" +
                     std::to_string(conv_no);
            l.inChannels = c;
            l.outChannels = out_c;
            l.inHeight = h;
            l.inWidth = w;
            l.kernel = 3;
            layers.push_back(l);
            c = out_c;
            ++conv_no;
        }
        LayerDesc p;
        p.kind = LayerDesc::Kind::Pool;
        p.name = "p" + std::to_string(block_no);
        p.inChannels = c;
        p.inHeight = h;
        p.inWidth = w;
        p.window = 2;
        layers.push_back(p);
        h /= 2;
        w /= 2;
        ++block_no;
    }

    const unsigned flat = c * h * w;  // 512 * 7 * 7 = 25,088
    const std::vector<std::pair<unsigned, unsigned>> fcs = {
        {flat, 4096}, {4096, 4096}, {4096, 1000}};
    unsigned fc_no = 6;
    for (auto [in, out] : fcs) {
        LayerDesc l;
        l.kind = LayerDesc::Kind::Fc;
        l.name = "fc" + std::to_string(fc_no++);
        l.inputs = in;
        l.outputs = out;
        layers.push_back(l);
    }
    return layers;
}

} // namespace

std::vector<LayerDesc>
vgg16Layers()
{
    return vggLayers({{64, 64},
                      {128, 128},
                      {256, 256, 256},
                      {512, 512, 512},
                      {512, 512, 512}});
}

std::vector<LayerDesc>
vgg19Layers()
{
    return vggLayers({{64, 64},
                      {128, 128},
                      {256, 256, 256, 256},
                      {512, 512, 512, 512},
                      {512, 512, 512, 512}});
}

std::vector<Fx16>
randomWeights(std::size_t n, Rng &rng, int magnitude)
{
    vip_assert(magnitude > 0, "magnitude must be positive");
    std::vector<Fx16> out(n);
    for (auto &v : out) {
        v = static_cast<Fx16>(rng.nextRange(-magnitude, magnitude));
    }
    return out;
}

} // namespace vip
