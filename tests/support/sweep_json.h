// The sweep document as a string, for the engine tests' byte-identity
// checks (the drivers stream theirs through the same writer).

#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "engine/emit.h"

namespace anc::test {

inline std::string sweep_json(const std::vector<engine::Task_result>& results,
                              const std::vector<engine::Point_summary>& summaries)
{
    std::ostringstream out;
    engine::write_json(out, results, summaries);
    return out.str();
}

} // namespace anc::test
