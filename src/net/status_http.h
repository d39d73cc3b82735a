// The ONE place engine Status codes become HTTP statuses and JSON error
// bodies (DESIGN.md Sec. 10, "error model"). Every endpoint handler routes
// its failures through ErrorResponse so clients always see the same shape:
//
//   {"error": {"code": "InvalidArgument", "status": 400, "message": "..."}}
//
// and its successes through JsonOk, so every body ends the same way.

#ifndef NEWSLINK_NET_STATUS_HTTP_H_
#define NEWSLINK_NET_STATUS_HTTP_H_

#include <string_view>

#include "common/json.h"
#include "common/status.h"
#include "net/http.h"

namespace newslink {
namespace net {

/// HTTP status for a Status code: OK→200, InvalidArgument/OutOfRange→400,
/// NotFound→404, AlreadyExists/FailedPrecondition→409, Timeout→408,
/// Unimplemented→501, IOError/Internal (and anything else)→500.
int StatusToHttp(const Status& status);

/// Stable wire name of a Status code ("InvalidArgument", ...).
std::string_view StatusCodeName(Status::Code code);

/// Inverse of StatusCodeName for RPC clients: rebuild the Status a peer's
/// error body describes. An unrecognized code name becomes Internal (the
/// message survives either way).
Status StatusFromWire(std::string_view code_name, std::string_view message);

/// `body` serialized as the response body (newline-terminated) at
/// `status`, 200 unless a handler says otherwise (201 for a created
/// document).
HttpResponse JsonOk(const json::Value& body, int status = 200);

/// JSON error body + mapped HTTP status for a non-OK Status.
HttpResponse ErrorResponse(const Status& status);

/// An error response at an explicit HTTP status (for transport-level
/// failures — parse errors, admission rejections — that have no Status).
HttpResponse ErrorResponseAt(int http_status, std::string_view message);

}  // namespace net
}  // namespace newslink

#endif  // NEWSLINK_NET_STATUS_HTTP_H_
