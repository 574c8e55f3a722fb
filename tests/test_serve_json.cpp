// Unit tests: the sickle-serve NDJSON layer — Json::parse on hostile and
// well-formed input, and a live Server's start -> connect -> stop
// lifecycle with the request-line bounds it enforces.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include "common/error.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

namespace sickle::serve {
namespace {

TEST(Json, DeepNestingIsATypedErrorNotACrash) {
  // The parser recurses once per nesting level, so one line of 2,000,000
  // '[' must fail fast at the depth cap instead of overflowing the stack.
  std::string objects;
  for (std::size_t i = 0; i <= kMaxJsonDepth; ++i) objects += "{\"a\":";
  for (const std::string& line : {std::string(2'000'000, '['), objects}) {
    try {
      (void)Json::parse(line);
      FAIL() << "deep nesting must be rejected";
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Json, NestingUpToTheCapParses) {
  const std::string ok = std::string(kMaxJsonDepth, '[') +
                         std::string(kMaxJsonDepth, ']');
  Json v = Json::parse(ok);
  for (std::size_t d = 1; d < kMaxJsonDepth; ++d) {
    ASSERT_EQ(v.items().size(), 1u) << "depth " << d;
    const Json inner = v.items()[0];
    v = inner;
  }
  EXPECT_TRUE(v.items().empty());
  EXPECT_THROW((void)Json::parse("[" + ok + "]"), RuntimeError);
}

/// The request shapes tools/serve_client.py sends (Python json.dumps
/// spacing) parse to the expected fields and survive dump -> parse.
TEST(Json, ClientRequestShapesRoundTrip) {
  const std::string config =
      "shared:\n  dataset: SST-P1F4\n  seed: 3\nstore:\n  backend: series\n";
  const std::string submit =
      "{\"verb\": \"submit\", \"config\": \"shared:\\n  dataset: "
      "SST-P1F4\\n  seed: 3\\nstore:\\n  backend: series\\n\"}";
  const Json req = Json::parse(submit);
  ASSERT_TRUE(req.is_object());
  EXPECT_EQ(req.get("verb")->as_string(), "submit");
  EXPECT_EQ(req.get("config")->as_string(), config);
  EXPECT_EQ(Json::parse(req.dump()).get("config")->as_string(), config);

  for (const char* verb : {"status", "result", "cancel"}) {
    const Json r = Json::parse(std::string("{\"verb\": \"") + verb +
                               "\", \"id\": 17}");
    EXPECT_EQ(r.get("verb")->as_string(), verb);
    EXPECT_EQ(r.get("id")->as_number(), 17.0);
    EXPECT_EQ(r.dump(), std::string("{\"verb\":\"") + verb + "\",\"id\":17}");
  }
  for (const char* verb : {"metrics", "shutdown"}) {
    const Json r = Json::parse(std::string("{\"verb\": \"") + verb + "\"}");
    EXPECT_EQ(r.dump(), std::string("{\"verb\":\"") + verb + "\"}");
    EXPECT_EQ(r.get("id"), nullptr);
  }
}

/// Minimal blocking NDJSON client over a loopback TCP socket.
class Client {
 public:
  explicit Client(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~Client() { ::close(fd_); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool connected() const noexcept { return connected_; }

  void send_line(const std::string& line) { send_raw(line + "\n"); }

  void send_raw(const std::string& framed) {
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return;  // the server may close mid-send
      off += static_cast<std::size_t>(n);
    }
  }

  /// One response line, or "" once the server has closed the connection.
  std::string read_line() {
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  bool connected_ = false;
  std::string buf_;
};

TEST(Server, StartConnectStop) {
  Server server;
  server.start();
  ASSERT_NE(server.port(), 0);
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    client.send_line("{\"verb\": \"metrics\"}");
    const Json resp = Json::parse(client.read_line());
    EXPECT_TRUE(resp.get("ok")->as_bool());
  }
  server.stop();
  server.stop();  // idempotent
  EXPECT_EQ(server.cases_submitted(), 0u);
}

TEST(Server, HostileLinesGetProtocolErrors) {
  Server server;
  server.start();
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  // Too deep: a typed protocol error, and the connection stays usable.
  client.send_line(std::string(2'000'000, '['));
  const Json deep = Json::parse(client.read_line());
  EXPECT_FALSE(deep.get("ok")->as_bool());
  EXPECT_EQ(deep.get("code")->as_string(), "protocol");
  client.send_line("{\"verb\": \"metrics\"}");
  EXPECT_TRUE(Json::parse(client.read_line()).get("ok")->as_bool());

  // Too long: a protocol error, then the server closes the connection.
  // (No newline: the server consumes every byte sent before it closes.)
  client.send_raw(std::string(kMaxRequestLineBytes + 1, ' '));
  const Json longline = Json::parse(client.read_line());
  EXPECT_EQ(longline.get("code")->as_string(), "protocol");
  EXPECT_EQ(client.read_line(), "");

  // The daemon itself keeps serving new connections.
  Client next(server.port());
  ASSERT_TRUE(next.connected());
  next.send_line("{\"verb\": \"metrics\"}");
  EXPECT_TRUE(Json::parse(next.read_line()).get("ok")->as_bool());
  server.stop();
}

}  // namespace
}  // namespace sickle::serve
