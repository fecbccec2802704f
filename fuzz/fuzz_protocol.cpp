// Fuzz target: serve::parse_request — the validator in front of every
// rdo_serve request line.
//
// Contract under fuzzing: the bytes either fail Json::parse, or
// parse_request returns a request or throws ProtocolError(BadRequest)
// (serve/protocol.h). Any other exception, or a ProtocolError with
// another code, aborts.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "obs/json.h"
#include "serve/protocol.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  rdo::obs::Json doc;
  try {
    doc = rdo::obs::Json::parse(text);
  } catch (const std::runtime_error&) {
    return 0;  // not JSON: the server answers bad_request before parsing
  }
  const rdo::core::DeployOptions base;
  try {
    (void)rdo::serve::parse_request(doc, base);
  } catch (const rdo::serve::ProtocolError& e) {
    if (e.code != rdo::serve::ErrorCode::BadRequest) {
      std::fprintf(stderr, "fuzz_protocol: non-BadRequest error: %s\n",
                   e.what());
      std::abort();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz_protocol: escaped exception: %s\n", e.what());
    std::abort();
  }
  return 0;
}
