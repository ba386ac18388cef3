// fxrz_cli: command-line front end for the whole pipeline.
//
//   fxrz_cli generate  --app nyx --field baryon_density --tstep 3 --out f.fts
//   fxrz_cli info      --data f.fts
//   fxrz_cli train     --compressor sz --data a.fts,b.fts,c.fts --model m.fxm
//   fxrz_cli estimate  --model m.fxm --compressor sz --data f.fts --target 100
//   fxrz_cli compress  --model m.fxm --compressor sz --data f.fts --target 100 \
//                      --out f.sz [--refine]
//   fxrz_cli decompress --compressor sz --in f.sz --out f_rec.fts
//
// Tensors use the .fts format (see src/data/tensor_io.h); models use
// FxrzModel's binary format.

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/features.h"
#include "src/core/pipeline.h"
#include "src/store/container.h"
#include "src/util/file_io.h"
#include "src/data/generators/hurricane.h"
#include "src/data/generators/nyx.h"
#include "src/data/generators/qmcpack.h"
#include "src/data/generators/rtm.h"
#include "src/data/statistics.h"
#include "src/data/tensor_io.h"

namespace {

using namespace fxrz;

// --key value argument map.
std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    args[key] = argv[i + 1];
  }
  return args;
}

std::string Get(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback = "") {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int CmdGenerate(const std::map<std::string, std::string>& args) {
  const std::string app = Get(args, "app", "nyx");
  const std::string out = Get(args, "out");
  if (out.empty()) return Fail("generate needs --out");
  const int tstep = std::atoi(Get(args, "tstep", "0").c_str());
  const int config_id = std::atoi(Get(args, "config", "1").c_str());

  Tensor data;
  if (app == "nyx") {
    const NyxConfig c = config_id == 2 ? NyxConfig2() : NyxConfig1();
    data = GenerateNyxField(c, Get(args, "field", "baryon_density"), tstep);
  } else if (app == "rtm") {
    const RtmConfig c =
        config_id == 2 ? RtmBigScaleConfig() : RtmSmallScaleConfig();
    data = SimulateRtmSnapshot(c, tstep > 0 ? tstep : 250);
  } else if (app == "qmcpack") {
    const QmcpackConfig c = config_id == 3   ? QmcpackConfig3()
                            : config_id == 2 ? QmcpackConfig2()
                                             : QmcpackConfig1();
    data = GenerateQmcpackOrbitals(c, std::atoi(Get(args, "spin", "0").c_str()));
  } else if (app == "hurricane") {
    data = GenerateHurricaneField(HurricaneDefaultConfig(),
                                  Get(args, "field", "TC"), tstep);
  } else {
    return Fail("unknown --app " + app + " (nyx|rtm|qmcpack|hurricane)");
  }
  const Status st = WriteTensorFile(data, out);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("wrote %s (%s, %.2f MB)\n", out.c_str(),
              data.ShapeString().c_str(), data.size_bytes() / 1048576.0);
  return 0;
}

int CmdInfo(const std::map<std::string, std::string>& args) {
  Tensor data;
  const Status st = ReadTensorFile(Get(args, "data"), &data);
  if (!st.ok()) return Fail(st.ToString());
  const SummaryStats s = ComputeSummary(data);
  const FeatureVector f = ExtractFeatures(data);
  std::printf("shape        %s\n", data.ShapeString().c_str());
  std::printf("min/max      %.6g / %.6g\n", s.min, s.max);
  std::printf("mean/stddev  %.6g / %.6g\n", s.mean, s.stddev);
  std::printf("value range  %.6g\n", f.value_range);
  std::printf("MND          %.6g\n", f.mnd);
  std::printf("MLD          %.6g\n", f.mld);
  std::printf("MSD          %.6g\n", f.msd);
  return 0;
}

int CmdTrain(const std::map<std::string, std::string>& args) {
  const std::string model_path = Get(args, "model");
  if (model_path.empty()) return Fail("train needs --model");
  std::vector<Tensor> tensors;
  for (const std::string& path : SplitCommas(Get(args, "data"))) {
    Tensor t;
    const Status st = ReadTensorFile(path, &t);
    if (!st.ok()) return Fail(st.ToString());
    tensors.push_back(std::move(t));
  }
  if (tensors.empty()) return Fail("train needs --data a.fts,b.fts,...");
  std::vector<const Tensor*> train;
  for (const Tensor& t : tensors) train.push_back(&t);

  Fxrz fxrz(MakeCompressor(Get(args, "compressor", "sz")));
  const TrainingBreakdown b = fxrz.Train(train);
  const Status st = fxrz.model().SaveToFile(model_path);
  if (!st.ok()) return Fail(st.ToString());
  std::printf(
      "trained on %zu datasets in %.2fs (%zu compressor runs); model -> %s\n",
      train.size(), b.total_seconds(), b.compressor_runs, model_path.c_str());
  std::printf("valid target-ratio range: [%.1f, %.1f]\n",
              fxrz.model().min_trained_ratio(),
              fxrz.model().max_trained_ratio());
  return 0;
}

int CmdEstimate(const std::map<std::string, std::string>& args) {
  FxrzModel model;
  Status st = model.LoadFromFile(Get(args, "model"));
  if (!st.ok()) return Fail(st.ToString());
  Tensor data;
  st = ReadTensorFile(Get(args, "data"), &data);
  if (!st.ok()) return Fail(st.ToString());
  const double target = std::atof(Get(args, "target", "0").c_str());
  if (target <= 0) return Fail("estimate needs --target > 0");
  std::printf("estimated config: %.8g\n",
              model.EstimateWithConfidence(data, target).config);
  return 0;
}

int CmdCompress(const std::map<std::string, std::string>& args) {
  const std::string comp_name = Get(args, "compressor", "sz");
  Fxrz fxrz(MakeCompressor(comp_name));
  Status st = fxrz.model().LoadFromFile(Get(args, "model"));
  if (!st.ok()) return Fail(st.ToString());
  Tensor data;
  st = ReadTensorFile(Get(args, "data"), &data);
  if (!st.ok()) return Fail(st.ToString());
  const double target = std::atof(Get(args, "target", "0").c_str());
  if (target <= 0) return Fail("compress needs --target > 0");
  const std::string out = Get(args, "out");
  if (out.empty()) return Fail("compress needs --out");

  // --refine spends one corrective recompression whenever the estimate
  // missed the target at all.
  GuardOptions policy = PaperPolicy(
      Get(args, "refine", "") == "true" || args.count("refine") ? 1 : 0);
  policy.accept_error = 0.0;
  StatusOr<GuardedResult> result =
      fxrz.GuardedCompressToRatio(data, target, policy);
  if (!result.ok()) return Fail(result.status().ToString());
  std::vector<uint8_t> bytes = std::move(result.value().compressed);
  const double ratio = result.value().measured_ratio;

  // Self-describing checksummed container, written atomically: the codec
  // name rides in the section name, and fxrz_verify can audit the file.
  const size_t archive_bytes = bytes.size();
  const Status wst = WriteContainerFile(
      out, std::string(kSectionArchivePrefix) + comp_name, std::move(bytes));
  if (!wst.ok()) return Fail(wst.ToString());
  std::printf("compressed %.2f MB -> %.2f MB (ratio %.1fx, target %.1fx)\n",
              data.size_bytes() / 1048576.0, archive_bytes / 1048576.0, ratio,
              target);
  return 0;
}

int CmdDecompress(const std::map<std::string, std::string>& args) {
  const std::string in = Get(args, "in");
  const std::string out = Get(args, "out");
  if (in.empty() || out.empty()) return Fail("decompress needs --in and --out");
  // Containered archives (the format `compress` writes) are checksum-
  // verified and name their own codec; version-0 raw archives fall back to
  // the --compressor flag.
  std::vector<uint8_t> raw;
  Status rst = ReadFileBytes(in, &raw);
  if (!rst.ok()) return Fail(rst.ToString());
  std::string comp_name = Get(args, "compressor", "sz");
  std::vector<uint8_t> bytes;
  if (LooksLikeContainer(raw.data(), raw.size())) {
    ContainerReader reader;
    rst = reader.Parse(std::move(raw));
    if (!rst.ok()) return Fail(rst.ToString());
    bool found = false;
    for (const ContainerSection& section : reader.sections()) {
      if (section.name.rfind(kSectionArchivePrefix, 0) != 0) continue;
      comp_name = section.name.substr(std::strlen(kSectionArchivePrefix));
      bytes.assign(section.data, section.data + section.size);
      found = true;
      break;
    }
    if (!found) return Fail("no archive section in " + in);
  } else {
    bytes = std::move(raw);
  }

  const auto comp = MakeArchiveCompressorOrNull(comp_name);
  if (comp == nullptr) return Fail("unknown compressor " + comp_name);
  Tensor data;
  const Status st = comp->Decompress(bytes.data(), bytes.size(), &data);
  if (!st.ok()) return Fail(st.ToString());
  const Status wst = WriteTensorFile(data, out);
  if (!wst.ok()) return Fail(wst.ToString());
  std::printf("decompressed %s -> %s (%s)\n", in.c_str(), out.c_str(),
              data.ShapeString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: fxrz_cli "
                 "<generate|info|train|estimate|compress|decompress> "
                 "[--key value ...]\n");
    return 1;
  }
  const std::string cmd = argv[1];
  const auto args = ParseArgs(argc, argv);
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "info") return CmdInfo(args);
  if (cmd == "train") return CmdTrain(args);
  if (cmd == "estimate") return CmdEstimate(args);
  if (cmd == "compress") return CmdCompress(args);
  if (cmd == "decompress") return CmdDecompress(args);
  return Fail("unknown command " + cmd);
}
