#include "src/dex/archive.h"

#include <cstring>
#include <sstream>

#include "src/support/bytes.h"
#include "src/support/hash.h"

namespace dexlego::dex {

using support::ByteReader;
using support::ByteWriter;
using support::ParseError;

namespace {
constexpr char kApkMagic[4] = {'L', 'A', 'P', 'K'};
}

std::string Manifest::serialize() const {
  std::ostringstream os;
  os << "package=" << package << "\n";
  os << "entry_class=" << entry_class << "\n";
  os << "version=" << version << "\n";
  for (const std::string& p : permissions) os << "permission=" << p << "\n";
  return os.str();
}

Manifest Manifest::parse(std::span<const uint8_t> data) {
  Manifest m;
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(data.data()), data.size()));
  std::string line;
  while (std::getline(is, line)) {
    auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    std::string key = line.substr(0, eq);
    std::string value = line.substr(eq + 1);
    if (key == "package") m.package = value;
    else if (key == "entry_class") m.entry_class = value;
    else if (key == "version") m.version = value;
    else if (key == "permission") m.permissions.push_back(value);
  }
  return m;
}

void Apk::set_manifest(const Manifest& manifest) {
  std::string text = manifest.serialize();
  set_entry(kManifestEntry, std::vector<uint8_t>(text.begin(), text.end()));
}

Manifest Apk::manifest() const { return Manifest::parse(entry(kManifestEntry)); }

void Apk::set_entry(const std::string& name, std::vector<uint8_t> data) {
  entries_[name] = std::move(data);
}

bool Apk::has_entry(const std::string& name) const { return entries_.count(name) > 0; }

const std::vector<uint8_t>& Apk::entry(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) throw std::out_of_range("no apk entry: " + name);
  return it->second;
}

void Apk::remove_entry(const std::string& name) { entries_.erase(name); }

std::vector<std::string> Apk::entry_names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, _] : entries_) names.push_back(name);
  return names;
}

std::vector<uint8_t> Apk::write() const {
  ByteWriter w;
  w.raw(kApkMagic, sizeof(kApkMagic));
  w.u32(static_cast<uint32_t>(entries_.size()));
  support::Fnv1a combined;
  for (const auto& [name, data] : entries_) {
    w.str(name);
    w.u32(static_cast<uint32_t>(data.size()));
    w.bytes(data);
    combined.add(support::fnv1a(data));
  }
  w.u64(combined.digest());
  return w.take();
}

Apk Apk::read(std::span<const uint8_t> data) {
  ByteReader r(data);
  auto magic = r.bytes(sizeof(kApkMagic));
  if (std::memcmp(magic.data(), kApkMagic, sizeof(kApkMagic)) != 0) {
    throw ParseError("bad LAPK magic");
  }
  Apk apk;
  uint32_t count = r.u32();
  // Each entry needs at least its two length prefixes plus the trailing
  // digest; a larger count is hostile.
  r.check_count(count, 8, "LAPK entry");
  support::Fnv1a combined;
  for (uint32_t i = 0; i < count; ++i) {
    std::string name = r.str();
    uint32_t size = r.u32();
    auto blob = r.bytes(size);
    combined.add(support::fnv1a(blob));
    apk.entries_.emplace(std::move(name), std::move(blob));
  }
  if (r.u64() != combined.digest()) throw ParseError("LAPK digest mismatch");
  if (!r.at_end()) throw ParseError("trailing bytes after LAPK payload");
  return apk;
}

}  // namespace dexlego::dex
