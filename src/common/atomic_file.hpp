// Crash-safe whole-file replacement, shared by the results cache, the
// optimizer checkpoint and the metrics snapshot.
#pragma once

#include <string>
#include <string_view>

namespace moheco {

/// Replaces `path` with `body`: writes `path.tmp.<pid>`, flushes it, then
/// renames it over `path`, so a concurrent reader -- or a crash at any
/// instant -- sees either the old complete file or the new one, never a
/// torn write.  The directory must already exist.  Returns an empty string
/// on success; on failure the temp file is removed and the message names
/// the step that failed.
std::string write_file_atomic(const std::string& path, std::string_view body);

}  // namespace moheco
