#include "state/snapshot.hpp"

#include <string>
#include <utility>

#include "proto/wire.hpp"
#include "state/fs.hpp"

namespace vdx::state {

namespace {

using Bytes = std::vector<std::uint8_t>;

template <typename T>
core::Result<T> corrupt(std::string message) {
  return core::Result<T>::failure(core::Errc::kCorruptSnapshot, std::move(message));
}

/// Checksum basis of one section: id and length participate so a bit flip in
/// the framing (not just the payload) is always caught.
std::uint64_t section_checksum(std::uint32_t id, const Bytes& payload) noexcept {
  proto::ByteWriter frame;
  frame.write_u32(id);
  frame.write_u64(payload.size());
  std::uint64_t sum = fnv1a(frame.data());
  return fnv1a(payload, sum);
}

}  // namespace

void SnapshotWriter::add_section(std::uint32_t id, std::vector<std::uint8_t> bytes) {
  sections_.push_back(Section{id, std::move(bytes)});
}

std::vector<std::uint8_t> SnapshotWriter::finish() const {
  proto::ByteWriter out;
  out.write_u64(kSnapshotMagic);
  out.write_u32(kFormatVersion);
  out.write_u32(static_cast<std::uint32_t>(sections_.size()));
  for (const Section& section : sections_) {
    out.write_u32(section.id);
    out.write_u64(section.bytes.size());
    out.write_bytes(section.bytes);
    out.write_u64(section_checksum(section.id, section.bytes));
  }
  out.write_u64(fnv1a(out.data()));
  return out.take();
}

core::Result<SnapshotView> SnapshotView::parse(std::span<const std::uint8_t> bytes) {
  // The file checksum covers everything before its own 8 bytes; verify it
  // first so random mutation anywhere in the envelope is one uniform error.
  if (bytes.size() < sizeof(std::uint64_t) * 2 + sizeof(std::uint32_t) * 2) {
    return corrupt<SnapshotView>("snapshot truncated: shorter than the envelope");
  }
  try {
    proto::ByteReader trailer{bytes.subspan(bytes.size() - sizeof(std::uint64_t))};
    const std::uint64_t expected_file_sum = trailer.read_u64();
    const auto body = bytes.first(bytes.size() - sizeof(std::uint64_t));

    proto::ByteReader in{body};
    const std::uint64_t magic = in.read_u64();
    if (magic != kSnapshotMagic) {
      return corrupt<SnapshotView>("snapshot magic mismatch (not a VDX snapshot)");
    }
    const std::uint32_t version = in.read_u32();
    if (version != kFormatVersion) {
      return core::Result<SnapshotView>::failure(
          core::Errc::kVersionMismatch,
          "snapshot format version " + std::to_string(version) +
              " (this build reads version " + std::to_string(kFormatVersion) + ")");
    }
    if (fnv1a(body) != expected_file_sum) {
      return corrupt<SnapshotView>("snapshot file checksum mismatch");
    }

    SnapshotView view;
    const std::uint32_t count = in.read_u32();
    view.sections_.reserve(count);
    for (std::uint32_t s = 0; s < count; ++s) {
      Section section;
      section.id = in.read_u32();
      const std::uint64_t length = in.read_u64();
      if (length > in.remaining()) {
        return corrupt<SnapshotView>("section " + std::to_string(s) +
                                     " length overruns the file");
      }
      const auto payload = in.read_bytes(static_cast<std::size_t>(length));
      section.bytes.assign(payload.begin(), payload.end());
      const std::uint64_t expected = in.read_u64();
      if (section_checksum(section.id, section.bytes) != expected) {
        return corrupt<SnapshotView>("section " + std::to_string(s) +
                                     " (id " + std::to_string(section.id) +
                                     ") checksum mismatch");
      }
      view.sections_.push_back(std::move(section));
    }
    if (!in.exhausted()) {
      return corrupt<SnapshotView>("trailing bytes after the last section");
    }
    return view;
  } catch (const proto::WireError&) {
    return corrupt<SnapshotView>("snapshot truncated mid-section");
  }
}

const Section* SnapshotView::find(std::uint32_t id) const noexcept {
  for (const Section& section : sections_) {
    if (section.id == id) return &section;
  }
  return nullptr;
}

core::Status write_file_atomic(FileSystem& fs, const std::filesystem::path& path,
                               std::span<const std::uint8_t> bytes) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  auto opened = fs.open_write(tmp);
  if (!opened.ok()) {
    return core::Status::failure(opened.error().code, opened.error().message);
  }
  const FileSystem::Handle handle = opened.value();
  core::Status step = fs.write(handle, bytes);
  if (step.ok()) step = fs.fsync(handle);
  {
    // Close regardless of earlier failures; a close error taints success.
    auto closed = fs.close(handle);
    if (step.ok()) step = std::move(closed);
  }
  if (step.ok()) step = fs.rename(tmp, path);
  if (!step.ok()) {
    // Best-effort tmp cleanup; the store ignores stale .tmp files anyway.
    (void)fs.remove(tmp);
    return step;
  }
  return core::ok_status();
}

core::Status write_file_atomic(const std::filesystem::path& path,
                               std::span<const std::uint8_t> bytes) {
  return write_file_atomic(real_fs(), path, bytes);
}

core::Result<std::vector<std::uint8_t>> read_file(const std::filesystem::path& path) {
  return real_fs().read_file(path);
}

}  // namespace vdx::state
