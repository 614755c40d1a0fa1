#include "stream/stream_config.h"

#include "util/check.h"

namespace smash::stream {

void StreamConfig::validate() const {
  SMASH_CHECK(epoch_seconds > 0, "StreamConfig: epoch_seconds must be > 0");
  SMASH_CHECK(window_epochs > 0, "StreamConfig: window_epochs must be > 0");
  SMASH_CHECK(fsync_policy <= WalFsync::kEveryRecord,
              "StreamConfig: unknown fsync_policy");
  SMASH_CHECK(durability_dir.empty() || checkpoint_every_epochs > 0,
              "StreamConfig: checkpoint_every_epochs must be > 0 when "
              "durability_dir is set");
}

}  // namespace smash::stream
