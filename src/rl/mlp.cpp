#include "rl/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>

#include "rl/matrix_simd.h"
#include "support/parallel.h"

namespace posetrl {

Mlp::Mlp(const std::vector<std::size_t>& sizes, Rng& rng) : sizes_(sizes) {
  POSETRL_CHECK(sizes.size() >= 2, "MLP needs at least input and output");
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    Layer layer;
    layer.w = Matrix::randomInit(sizes[i + 1], sizes[i], rng);
    layer.b.assign(sizes[i + 1], 0.0);
    layer.gw = Matrix::zeros(sizes[i + 1], sizes[i]);
    layer.gb.assign(sizes[i + 1], 0.0);
    layer.mw = Matrix::zeros(sizes[i + 1], sizes[i]);
    layer.vw = Matrix::zeros(sizes[i + 1], sizes[i]);
    layer.mb.assign(sizes[i + 1], 0.0);
    layer.vb.assign(sizes[i + 1], 0.0);
    layers_.push_back(std::move(layer));
  }
}

std::vector<double> Mlp::forward(const std::vector<double>& x) const {
  std::vector<double> a = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    a = layers_[l].w.matVec(a, &layers_[l].b);
    if (l + 1 < layers_.size()) {
      for (double& v : a) v = keepIf(v > 0.0, v);
    }
  }
  return a;
}

Matrix Mlp::forwardBatch(const Matrix& x) const {
  POSETRL_CHECK(x.cols() == sizes_.front(),
                "forwardBatch input width mismatch: ", x.cols(), " vs ",
                sizes_.front());
  // a (batch x in) * w^T (in x out) + bias broadcast over rows, then ReLU
  // on hidden layers, fused into the product's parts.
  Matrix a;
  const Matrix* in = &x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    a = Matrix::matMul(*in, false, layer.w, true,
                       {&layer.b, l + 1 < layers_.size(), nullptr});
    in = &a;
  }
  return a;
}

double Mlp::accumulateGradientBatch(const Matrix& x,
                                    const std::vector<std::size_t>& actions,
                                    const std::vector<double>& targets) {
  const std::size_t batch = x.rows();
  POSETRL_CHECK(actions.size() == batch && targets.size() == batch,
                "accumulateGradientBatch: batch size mismatch");
  // Forward, storing the output of every layer; layer l reads input(l).
  std::vector<Matrix> outs;
  outs.reserve(layers_.size());
  const auto input = [&](std::size_t l) -> const Matrix& {
    return l == 0 ? x : outs[l - 1];
  };
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    outs.push_back(Matrix::matMul(input(l), false, layer.w, true,
                                  {&layer.b, l + 1 < layers_.size(), nullptr}));
  }
  const Matrix& q = outs.back();
  // Output gradient: only the chosen head of each sample is non-zero
  // (Huber, delta = 1).
  Matrix grad = Matrix::zeros(batch, q.cols());
  double loss = 0.0;
  for (std::size_t s = 0; s < batch; ++s) {
    POSETRL_CHECK(actions[s] < q.cols(), "action index out of range");
    const double td = q.at(s, actions[s]) - targets[s];
    grad.at(s, actions[s]) = std::clamp(td, -1.0, 1.0);
    loss += std::abs(td);
  }
  for (std::size_t li = layers_.size(); li-- > 0;) {
    Layer& layer = layers_[li];
    // dW += grad^T * input; db += column sums of grad, in sample order.
    layer.gw.addMatMul(grad, true, input(li), false);
    for (std::size_t s = 0; s < batch; ++s) {
      const double* grow = grad.data() + s * grad.cols();
      for (std::size_t c = 0; c < grad.cols(); ++c) layer.gb[c] += grow[c];
    }
    if (li == 0) break;
    // Propagate: dInput = grad * W, masked by the ReLU of layer li-1.
    grad = Matrix::matMul(grad, false, layer.w, false,
                          {nullptr, false, &input(li)});
  }
  return loss;
}

double Mlp::accumulateGradient(const std::vector<double>& x,
                               std::size_t action, double target) {
  // Forward, storing activations.
  std::vector<std::vector<double>> acts{x};
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    std::vector<double> a = layers_[l].w.matVec(acts.back(), &layers_[l].b);
    if (l + 1 < layers_.size()) {
      for (double& v : a) v = keepIf(v > 0.0, v);
    }
    acts.push_back(std::move(a));
  }
  const std::vector<double>& q = acts.back();
  POSETRL_CHECK(action < q.size(), "action index out of range");
  const double td = q[action] - target;
  // Huber (delta=1): dL/dq = clamp(td, -1, 1).
  const double dq = std::clamp(td, -1.0, 1.0);

  // Backward: only the chosen head has a non-zero output gradient.
  std::vector<double> grad(q.size(), 0.0);
  grad[action] = dq;
  for (std::size_t li = layers_.size(); li-- > 0;) {
    Layer& layer = layers_[li];
    const std::vector<double>& input = acts[li];
    // dW += grad ⊗ input; db += grad.
    for (std::size_t r = 0; r < layer.w.rows(); ++r) {
      if (grad[r] == 0.0) continue;
      double* grow = layer.gw.data() + r * layer.w.cols();
      const double g = grad[r];
      for (std::size_t c = 0; c < layer.w.cols(); ++c) {
        grow[c] += g * input[c];
      }
      layer.gb[r] += g;
    }
    if (li == 0) break;
    // Propagate: dInput = W^T grad, masked by the ReLU of layer li-1.
    std::vector<double> next(layer.w.cols(), 0.0);
    for (std::size_t r = 0; r < layer.w.rows(); ++r) {
      if (grad[r] == 0.0) continue;
      const double* row = layer.w.data() + r * layer.w.cols();
      const double g = grad[r];
      for (std::size_t c = 0; c < layer.w.cols(); ++c) {
        next[c] += g * row[c];
      }
    }
    for (std::size_t c = 0; c < next.size(); ++c) {
      next[c] = keepIf(!(acts[li][c] <= 0.0), next[c]);  // ReLU mask.
    }
    grad = std::move(next);
  }
  return std::abs(td);
}

namespace simd {

void adamUpdateScalar(double* w, double* g, double* m, double* v,
                      std::size_t n, double lr, double inv_batch, double bc1,
                      double bc2) {
  // m / 1.0 == m bit for bit, so the divide is skipped once bc1 rounds to 1.
  const bool divide_m = bc1 != 1.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double grad = g[j] * inv_batch;
    m[j] = kAdamBeta1 * m[j] + (1.0 - kAdamBeta1) * grad;
    v[j] = kAdamBeta2 * v[j] + (1.0 - kAdamBeta2) * grad * grad;
    const double mh = divide_m ? m[j] / bc1 : m[j];
    const double vh = v[j] / bc2;
    w[j] -= lr * mh / (std::sqrt(vh) + kAdamEps);
    g[j] = 0.0;
  }
}

}  // namespace simd

namespace {

void adamUpdate(double* w, double* g, double* m, double* v, std::size_t n,
                double lr, double inv_batch, double bc1, double bc2,
                bool use_avx2) {
#if defined(__x86_64__) || defined(_M_X64)
  if (use_avx2) {
    simd::adamUpdateAvx2(w, g, m, v, n, lr, inv_batch, bc1, bc2);
    return;
  }
#else
  (void)use_avx2;
#endif
  simd::adamUpdateScalar(w, g, m, v, n, lr, inv_batch, bc1, bc2);
}

/// Parameters per part below which Adam is not worth forking: about 4 ns
/// each (three divides and a square root), so a part is at least about
/// 16 us of work.
constexpr std::size_t kAdamGrain = 4096;

}  // namespace

void Mlp::adamStep(double lr, std::size_t batch_size) {
  ++adam_t_;
  const double bc1 =
      1.0 - std::pow(simd::kAdamBeta1, static_cast<double>(adam_t_));
  const double bc2 =
      1.0 - std::pow(simd::kAdamBeta2, static_cast<double>(adam_t_));
  const double inv_batch =
      1.0 / static_cast<double>(std::max<std::size_t>(1, batch_size));
  const bool use_avx2 = simd::avx2Active();
  // Every layer's weights, then its biases, as one run of elements: Adam is
  // elementwise, so a part may own any range of it. Parts cut it in
  // multiples of 4 (whole AVX2 vectors) in one fork for the whole network.
  std::size_t total = 0;
  for (const Layer& layer : layers_) total += layer.w.size() + layer.b.size();
  const std::size_t parts = plannedParts(total, kAdamGrain, (total + 3) / 4);
  forkJoin(parts, [&](std::size_t p) {
    const std::size_t lo = splitPoint(total, parts, p, 4);
    const std::size_t hi = splitPoint(total, parts, p + 1, 4);
    std::size_t offset = 0;
    // Updates the part's share of the next n elements of the run.
    const auto segment = [&](double* w, double* g, double* m, double* v,
                             std::size_t n) {
      const std::size_t a = std::max(lo, offset);
      const std::size_t b = std::min(hi, offset + n);
      if (a < b) {
        const std::size_t at = a - offset;
        adamUpdate(w + at, g + at, m + at, v + at, b - a, lr, inv_batch, bc1,
                   bc2, use_avx2);
      }
      offset += n;
    };
    for (Layer& layer : layers_) {
      segment(layer.w.data(), layer.gw.data(), layer.mw.data(),
              layer.vw.data(), layer.w.size());
      segment(layer.b.data(), layer.gb.data(), layer.mb.data(),
              layer.vb.data(), layer.b.size());
    }
  });
}

void Mlp::copyParametersFrom(const Mlp& other) {
  POSETRL_CHECK(sizes_ == other.sizes_, "MLP architecture mismatch");
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].w = other.layers_[l].w;
    layers_[l].b = other.layers_[l].b;
  }
}

void Mlp::setConstantOutput(const std::vector<double>& output) {
  POSETRL_CHECK(output.size() == outputSize(),
                "constant output width must match the output layer");
  for (Layer& layer : layers_) {
    layer.w.fill(0.0);
    std::fill(layer.b.begin(), layer.b.end(), 0.0);
  }
  layers_.back().b = output;
}

std::size_t Mlp::parameterCount() const {
  std::size_t n = 0;
  for (const Layer& layer : layers_) n += layer.w.size() + layer.b.size();
  return n;
}

void Mlp::save(std::ostream& os) const {
  os << "mlp " << sizes_.size();
  for (std::size_t s : sizes_) os << " " << s;
  os << "\n";
  os.precision(17);
  for (const Layer& layer : layers_) {
    for (double v : layer.w.raw()) os << v << " ";
    for (double v : layer.b) os << v << " ";
    os << "\n";
  }
}

void Mlp::load(std::istream& is) {
  std::string tag;
  std::size_t n = 0;
  is >> tag >> n;
  POSETRL_CHECK(tag == "mlp" && n == sizes_.size(), "bad MLP header");
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t s = 0;
    is >> s;
    POSETRL_CHECK(s == sizes_[i], "MLP architecture mismatch on load");
  }
  for (Layer& layer : layers_) {
    for (double& v : layer.w.raw()) is >> v;
    for (double& v : layer.b) is >> v;
  }
  POSETRL_CHECK(static_cast<bool>(is), "truncated MLP payload");
}

void Mlp::saveState(std::ostream& os) const {
  os << "mlp-state " << sizes_.size();
  for (std::size_t s : sizes_) os << " " << s;
  os << " " << adam_t_ << "\n";
  // max_digits10 == 17 round-trips every finite double exactly.
  os.precision(17);
  for (const Layer& layer : layers_) {
    for (double v : layer.w.raw()) os << v << " ";
    for (double v : layer.b) os << v << " ";
    for (double v : layer.mw.raw()) os << v << " ";
    for (double v : layer.vw.raw()) os << v << " ";
    for (double v : layer.mb) os << v << " ";
    for (double v : layer.vb) os << v << " ";
    os << "\n";
  }
}

void Mlp::loadState(std::istream& is) {
  std::string tag;
  std::size_t n = 0;
  is >> tag >> n;
  POSETRL_CHECK(tag == "mlp-state" && n == sizes_.size(),
                "bad MLP state header");
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t s = 0;
    is >> s;
    POSETRL_CHECK(s == sizes_[i], "MLP architecture mismatch on state load");
  }
  is >> adam_t_;
  for (Layer& layer : layers_) {
    for (double& v : layer.w.raw()) is >> v;
    for (double& v : layer.b) is >> v;
    for (double& v : layer.mw.raw()) is >> v;
    for (double& v : layer.vw.raw()) is >> v;
    for (double& v : layer.mb) is >> v;
    for (double& v : layer.vb) is >> v;
    // Checkpoints are taken between batches, where gradients are zero.
    layer.gw.fill(0.0);
    std::fill(layer.gb.begin(), layer.gb.end(), 0.0);
  }
  POSETRL_CHECK(static_cast<bool>(is), "truncated MLP state payload");
}

}  // namespace posetrl
