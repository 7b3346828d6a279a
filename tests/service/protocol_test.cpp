// ServiceFrontEnd tests: line-protocol parsing, response formatting, and an
// end-to-end drive of the service through protocol text.
#include "service/protocol.h"

#include <gtest/gtest.h>

#include <string>

namespace stemcp::service {
namespace {

TEST(ServiceProtocolTest, ParseAssignments) {
  Request r;
  std::string err;
  ASSERT_TRUE(ServiceFrontEnd::parse("batch-assign s A.delay(x->y) 1e-9 B.w 4",
                                     &r, &err))
      << err;
  EXPECT_EQ(r.type, RequestType::kBatchAssign);
  EXPECT_EQ(r.session, "s");
  ASSERT_EQ(r.assignments.size(), 2u);
  EXPECT_EQ(r.assignments[0].variable, "A.delay(x->y)");
  EXPECT_DOUBLE_EQ(r.assignments[0].value, 1e-9);
  EXPECT_EQ(r.assignments[1].variable, "B.w");
  EXPECT_DOUBLE_EQ(r.assignments[1].value, 4.0);

  EXPECT_FALSE(ServiceFrontEnd::parse("assign s", &r, &err));
  EXPECT_FALSE(ServiceFrontEnd::parse("assign s A.w notanumber", &r, &err));
  EXPECT_FALSE(ServiceFrontEnd::parse("", &r, &err));
  EXPECT_FALSE(ServiceFrontEnd::parse("open", &r, &err));
  EXPECT_FALSE(ServiceFrontEnd::parse("frobnicate s", &r, &err));
}

TEST(ServiceProtocolTest, ParseSelectVerbs) {
  Request r;
  std::string err;
  ASSERT_TRUE(ServiceFrontEnd::parse(
      "select s ALU slot add limit 3 commit", &r, &err))
      << err;
  EXPECT_EQ(r.type, RequestType::kSelect);
  EXPECT_EQ(r.session, "s");
  EXPECT_EQ(r.text, "ALU slot add limit 3 commit");

  ASSERT_TRUE(ServiceFrontEnd::parse("select-stats s ALU", &r, &err)) << err;
  EXPECT_EQ(r.type, RequestType::kSelectStats);
  EXPECT_EQ(r.text, "ALU");

  EXPECT_FALSE(ServiceFrontEnd::parse("select s", &r, &err));
  EXPECT_NE(err.find("needs a cell name"), std::string::npos) << err;
  EXPECT_FALSE(ServiceFrontEnd::parse("select-stats s", &r, &err));
}

TEST(ServiceProtocolTest, UnknownCommandListsValidVerbs) {
  Request r;
  std::string err;
  ASSERT_FALSE(ServiceFrontEnd::parse("frobnicate s", &r, &err));
  EXPECT_NE(err.find("unknown service command 'frobnicate'"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("valid commands:"), std::string::npos) << err;
  // Every per-session verb the parser accepts must be in the menu.
  for (const char* verb :
       {"open", "load", "save", "assign", "batch-assign", "edit", "query",
        "report", "select", "select-stats", "journal", "checkpoint",
        "recover", "close", "help"}) {
    EXPECT_NE(err.find(verb), std::string::npos) << "missing " << verb;
  }
}

TEST(ServiceProtocolTest, ParseLoadTextUnescapesNewlines) {
  Request r;
  std::string err;
  ASSERT_TRUE(ServiceFrontEnd::parse(
      "load s text cell A\\nsignal p input\\nend", &r, &err))
      << err;
  EXPECT_EQ(r.type, RequestType::kLoad);
  EXPECT_EQ(r.text, "cell A\nsignal p input\nend");
}

TEST(ServiceProtocolTest, FormatResponses) {
  Response r;
  r.ok = false;
  r.error = "boom";
  EXPECT_EQ(ServiceFrontEnd::format(r), "error: boom\n");

  r = Response{};
  r.ok = true;
  r.text = "hello";
  EXPECT_EQ(ServiceFrontEnd::format(r), "ok\nhello\n");

  r = Response{};
  r.ok = true;
  r.assignments_applied = 3;
  EXPECT_EQ(ServiceFrontEnd::format(r), "ok (applied 3 assignment(s))\n");

  r = Response{};
  r.ok = true;
  r.violation = true;
  r.violation_message = "over budget";
  r.variables_restored = 2;
  EXPECT_EQ(ServiceFrontEnd::format(r),
            "ok VIOLATION: over budget (restored 2 variable(s))\n");
}

TEST(ServiceProtocolTest, EndToEndOverProtocolText) {
  DesignService svc(2);
  ServiceFrontEnd fe(svc);

  EXPECT_EQ(fe.execute("open a metrics"), "ok\nopened a\n");
  EXPECT_EQ(fe.execute("open a"), "error: session 'a' already exists\n");

  std::string out = fe.execute(
      "load a text cell STAGE\\nsignal in input\\nsignal out output\\n"
      "delay in out\\nspec <= 1e-7\\nend");
  EXPECT_EQ(out, "ok\nloaded 1 cell(s)\n") << out;

  out = fe.execute("batch-assign a STAGE.delay(in->out) 4e-8");
  EXPECT_EQ(out, "ok (applied 1 assignment(s))\n") << out;

  out = fe.execute("query a STAGE.delay(in->out)");
  EXPECT_NE(out.find("4e-08"), std::string::npos) << out;

  // A violating batch reports the outcome on the status line.
  out = fe.execute("batch-assign a STAGE.delay(in->out) 2e-7");
  EXPECT_NE(out.find("ok VIOLATION"), std::string::npos) << out;
  EXPECT_NE(out.find("restored"), std::string::npos) << out;

  out = fe.execute("query a stats");
  EXPECT_NE(out.find("requests served"), std::string::npos) << out;
  EXPECT_NE(out.find("metrics:"), std::string::npos) << out;

  out = fe.execute("save a");
  EXPECT_NE(out.find("cell STAGE"), std::string::npos) << out;

  out = fe.execute("sessions");
  EXPECT_NE(out.find("a\n"), std::string::npos) << out;
  EXPECT_NE(out.find("1 session(s)"), std::string::npos) << out;

  EXPECT_EQ(fe.execute("close a"), "ok\nclosed a\n");
  EXPECT_NE(fe.execute("query a cells").find("error: unknown session"),
            std::string::npos);

  EXPECT_NE(fe.execute("help").find("service commands"), std::string::npos);
  EXPECT_NE(fe.execute("bogus x").find("error:"), std::string::npos);
}

// render() is the inverse of parse() — the contract the workload trace
// format leans on (src/workload/trace.h).
TEST(ServiceProtocolTest, RenderIsTheInverseOfParse) {
  const char* lines[] = {
      "open s",
      "open s metrics trace",
      "load s text cell A\\n  signal p input\\nend\\n",
      "load s text end # a \\\\ and a \\\\n\\n",
      "save s",
      "assign s A.x(a->b) 0.10000000000000001",
      "batch-assign s A.x(a->b) 1 B.y(c->d) 2.5",
      "edit s leaf-delay STAGE in out 4e-08",
      "query s",
      "query s stats",
      "report s PIPE",
      "journal s base every-record",
      "checkpoint s",
      "recover s base",
      "select s ALU limit 4",
      "select-stats s ALU",
      "close s",
  };
  for (const char* line : lines) {
    Request req;
    std::string err;
    ASSERT_TRUE(ServiceFrontEnd::parse(line, &req, &err)) << line << ": " << err;
    std::string rendered;
    ASSERT_TRUE(ServiceFrontEnd::render(req, &rendered, &err))
        << line << ": " << err;
    Request again;
    ASSERT_TRUE(ServiceFrontEnd::parse(rendered, &again, &err))
        << rendered << ": " << err;
    EXPECT_EQ(again.type, req.type) << line;
    EXPECT_EQ(again.session, req.session) << line;
    EXPECT_EQ(again.text, req.text) << line;
    ASSERT_EQ(again.assignments.size(), req.assignments.size()) << line;
    for (std::size_t i = 0; i < req.assignments.size(); ++i) {
      EXPECT_EQ(again.assignments[i].variable, req.assignments[i].variable);
      EXPECT_EQ(again.assignments[i].value, req.assignments[i].value);
    }
    // Idempotence: rendering the reparsed request reproduces the bytes.
    std::string rendered2;
    ASSERT_TRUE(ServiceFrontEnd::render(again, &rendered2, &err)) << err;
    EXPECT_EQ(rendered2, rendered) << line;
  }
}

TEST(ServiceProtocolTest, RenderRejectsWhatCannotRoundTrip) {
  std::string out, err;
  Request r;
  r.type = RequestType::kQuery;
  r.session = "two words";
  EXPECT_FALSE(ServiceFrontEnd::render(r, &out, &err));
  r.session = "";
  EXPECT_FALSE(ServiceFrontEnd::render(r, &out, &err));
  r.session = "s";
  r.type = RequestType::kAssign;
  r.text = "";
  EXPECT_FALSE(ServiceFrontEnd::render(r, &out, &err)) << "no assignments";
  r.assignments.push_back({"has space", 1.0});
  EXPECT_FALSE(ServiceFrontEnd::render(r, &out, &err));
  r.assignments.back().variable = "A.x(a->b)";
  out.clear();
  EXPECT_TRUE(ServiceFrontEnd::render(r, &out, &err)) << err;
  r.type = RequestType::kEdit;
  r.text = "two\nlines";
  out.clear();
  EXPECT_FALSE(ServiceFrontEnd::render(r, &out, &err));
  r.type = RequestType::kSave;
  r.text = "file /tmp/x";  // save-to-file is not replayable traffic
  out.clear();
  EXPECT_FALSE(ServiceFrontEnd::render(r, &out, &err));
}

TEST(ServiceProtocolTest, SaveToFile) {
  DesignService svc(1);
  ServiceFrontEnd fe(svc);
  fe.execute("open f");
  fe.execute("load f text cell A\\nsignal p input\\nend");
  const std::string path = ::testing::TempDir() + "/stemcp_proto_save.lib";
  std::string out = fe.execute("save f file " + path);
  EXPECT_NE(out.find("saved to"), std::string::npos) << out;

  // Round-trip through `load file`.
  fe.execute("open g");
  out = fe.execute("load g file " + path);
  EXPECT_EQ(out, "ok\nloaded 1 cell(s)\n") << out;
  out = fe.execute("load g file /no/such/file");
  EXPECT_NE(out.find("error: cannot read"), std::string::npos) << out;
}

}  // namespace
}  // namespace stemcp::service
