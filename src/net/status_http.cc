#include "net/status_http.h"

#include "common/logging.h"

namespace newslink {
namespace net {

int StatusToHttp(const Status& status) {
  switch (status.code()) {
    case Status::Code::kOk:
      return 200;
    case Status::Code::kInvalidArgument:
    case Status::Code::kOutOfRange:
      return 400;
    case Status::Code::kNotFound:
      return 404;
    case Status::Code::kAlreadyExists:
    case Status::Code::kFailedPrecondition:
      return 409;
    case Status::Code::kTimeout:
      return 408;
    case Status::Code::kUnimplemented:
      return 501;
    case Status::Code::kInternal:
    case Status::Code::kIOError:
      return 500;
  }
  return 500;
}

std::string_view StatusCodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk:
      return "OK";
    case Status::Code::kInvalidArgument:
      return "InvalidArgument";
    case Status::Code::kNotFound:
      return "NotFound";
    case Status::Code::kAlreadyExists:
      return "AlreadyExists";
    case Status::Code::kOutOfRange:
      return "OutOfRange";
    case Status::Code::kFailedPrecondition:
      return "FailedPrecondition";
    case Status::Code::kInternal:
      return "Internal";
    case Status::Code::kIOError:
      return "IOError";
    case Status::Code::kTimeout:
      return "Timeout";
    case Status::Code::kUnimplemented:
      return "Unimplemented";
  }
  return "Unknown";
}

Status StatusFromWire(std::string_view code_name, std::string_view message) {
  if (code_name == "InvalidArgument") return Status::InvalidArgument(message);
  if (code_name == "NotFound") return Status::NotFound(message);
  if (code_name == "AlreadyExists") return Status::AlreadyExists(message);
  if (code_name == "OutOfRange") return Status::OutOfRange(message);
  if (code_name == "FailedPrecondition") {
    return Status::FailedPrecondition(message);
  }
  if (code_name == "IOError") return Status::IOError(message);
  if (code_name == "Timeout") return Status::Timeout(message);
  if (code_name == "Unimplemented") return Status::Unimplemented(message);
  return Status::Internal(message);
}

HttpResponse JsonOk(const json::Value& body, int status) {
  HttpResponse response;
  response.status = status;
  response.body = body.Dump();
  response.body.push_back('\n');
  return response;
}

HttpResponse ErrorResponse(const Status& status) {
  NL_DCHECK(!status.ok()) << "ErrorResponse needs a non-OK status";
  const int http = StatusToHttp(status);
  json::Value body = json::Value::Object();
  json::Value& err = body.Set("error", json::Value::Object());
  err.Set("code", json::Value::Str(StatusCodeName(status.code())));
  err.Set("status", json::Value::Int(http));
  err.Set("message", json::Value::Str(status.message()));
  HttpResponse response;
  response.status = http;
  response.body = body.Dump();
  return response;
}

HttpResponse ErrorResponseAt(int http_status, std::string_view message) {
  json::Value body = json::Value::Object();
  json::Value& err = body.Set("error", json::Value::Object());
  err.Set("code", json::Value::Str(HttpReasonPhrase(http_status)));
  err.Set("status", json::Value::Int(http_status));
  err.Set("message", json::Value::Str(message));
  HttpResponse response;
  response.status = http_status;
  response.body = body.Dump();
  return response;
}

}  // namespace net
}  // namespace newslink
