#include "workloads.h"

#include "train/mlp_model.h"
#include "train/transformer_model.h"
#include "util/random.h"

namespace perfbench {

namespace {

mics::TransformerClassifier::Config TransformerConfig() {
  mics::TransformerClassifier::Config c;
  c.vocab = 64;
  c.seq_len = 16;
  c.dim = 48;
  c.heads = 4;
  c.ffn = 96;
  c.blocks = 4;
  c.classes = 8;
  return c;
}

// About 1.05M parameters (4.2 MB fp32): megabytes per gather and
// reduce-scatter against a few MFLOP of compute per sample.
mics::MlpModel::Config WideMlpConfig() {
  mics::MlpModel::Config c;
  c.input_dim = 256;
  c.hidden = 3840;
  c.classes = 16;
  return c;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> w;
  {
    Workload t;
    t.name = "train-wide-inproc";
    t.model = ModelKind::kWideMlp;
    t.backend = mics::BackendKind::kInProcess;
    t.iters_per_round = 6;
    t.micro_batch = 2;
    t.accum_steps = 2;
    w.push_back(t);
  }
  {
    Workload t = w.back();
    t.name = "train-wide-socket";
    t.backend = mics::BackendKind::kSocket;
    t.ckpt_every = 3;
    t.resume_prep_iters = 2;
    w.push_back(t);
  }
  {
    // The transformer job is compute-bound (ForwardBackward is most of
    // the step), so its training rounds carry the kernels and model layer.
    Workload t;
    t.name = "serve-transformer-mics";
    t.model = ModelKind::kTransformer;
    t.backend = mics::BackendKind::kInProcess;
    t.train_share = 0.4;
    t.serve_share = 0.5;
    t.iters_per_round = 3;
    t.micro_batch = 4;
    t.accum_steps = 2;
    t.grad_buckets = 4;
    t.async_comm = true;
    t.serve_gather = mics::serve::GatherMode::kPerBatch;
    t.overload_qps = 10000.0;
    w.push_back(t);
  }
  return w;
}

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kAll = BuildWorkloads();
  return kAll;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::unique_ptr<mics::train::Model> MakeModel(ModelKind kind) {
  if (kind == ModelKind::kTransformer) {
    return std::make_unique<mics::TransformerClassifier>(TransformerConfig());
  }
  return std::make_unique<mics::MlpModel>(WideMlpConfig());
}

double ForwardFlopsPerSample(ModelKind kind) {
  if (kind == ModelKind::kTransformer) {
    const auto c = TransformerConfig();
    const double s = static_cast<double>(c.seq_len);
    const double d = static_cast<double>(c.dim);
    const double f = static_cast<double>(c.ffn);
    const double block = 4.0 * 2.0 * s * d * d   // Q, K, V, O projections
                         + 2.0 * 2.0 * s * s * d  // scores and weighted sum
                         + 2.0 * 2.0 * s * d * f;  // feed-forward
    return static_cast<double>(c.blocks) * block +
           2.0 * d * static_cast<double>(c.classes);
  }
  const auto c = WideMlpConfig();
  return 2.0 * static_cast<double>(c.input_dim * c.hidden + c.hidden * c.classes);
}

DataSource::DataSource(ModelKind kind, uint64_t seed) : kind_(kind) {
  if (kind == ModelKind::kTransformer) {
    const auto m = TransformerConfig();
    mics::SyntheticSequenceDataset::Config c;
    c.vocab = m.vocab;
    c.seq_len = m.seq_len;
    c.classes = m.classes;
    // Most tokens are noise, so the classes overlap and the loss levels
    // off well above zero instead of collapsing within the run.
    c.noise_prob = 0.85f;
    seq_ = std::make_unique<mics::SyntheticSequenceDataset>(c, seed);
  } else {
    const auto m = WideMlpConfig();
    mics::SyntheticClassificationDataset::Config c;
    c.input_dim = m.input_dim;
    c.classes = m.classes;
    // Overlapping clusters: the default (stddev 0.6, scale 2.0) is
    // separable and its loss reaches exactly 0 within 20 iterations.
    c.cluster_stddev = 1.0f;
    c.center_scale = 0.25f;
    cls_ = std::make_unique<mics::SyntheticClassificationDataset>(c, seed);
  }
}

mics::Status DataSource::Sample(int64_t step, int rank, int64_t batch,
                                mics::Tensor* x,
                                std::vector<int32_t>* y) const {
  if (kind_ == ModelKind::kTransformer) {
    return seq_->Sample(step, rank, batch, x, y);
  }
  return cls_->Sample(step, rank, batch, x, y);
}

mics::Tensor MakeRequestInput(ModelKind kind, uint64_t seed, int64_t index) {
  mics::Rng rng(Mix(seed, static_cast<uint64_t>(index)));
  if (kind == ModelKind::kTransformer) {
    const auto c = TransformerConfig();
    mics::Tensor x({c.seq_len}, mics::DType::kI32);
    const std::vector<int32_t> tokens =
        rng.Tokens(c.seq_len, static_cast<int32_t>(c.vocab));
    for (int64_t i = 0; i < c.seq_len; ++i) x.i32()[i] = tokens[static_cast<size_t>(i)];
    return x;
  }
  const auto c = WideMlpConfig();
  mics::Tensor x({c.input_dim}, mics::DType::kF32);
  rng.FillNormal(x.f32(), c.input_dim, 1.0f);
  return x;
}

}  // namespace perfbench
