#include "src/apps/init_script.h"

#include <gtest/gtest.h>

#include "src/apps/manifest.h"

namespace lupine::apps {
namespace {

TEST(InitScriptTest, GeneratedScriptShape) {
  ContainerImage image = MakeAlpineImage(*FindManifest("redis"));
  std::string script = GenerateInitScript(image);
  EXPECT_EQ(script.rfind("#!lupine-init", 0), 0u);
  EXPECT_NE(script.find("hostname redis"), std::string::npos);
  EXPECT_NE(script.find("mount proc /proc"), std::string::npos);
  EXPECT_NE(script.find("mkdir /data"), std::string::npos);
  EXPECT_NE(script.find("env REDIS_VERSION=5.0.5"), std::string::npos);
  EXPECT_NE(script.find("exec /bin/redis /etc/redis.conf"), std::string::npos);
}

TEST(InitScriptTest, ExecIsLastLine) {
  ContainerImage image = MakeAlpineImage(*FindManifest("nginx"));
  std::string script = GenerateInitScript(image);
  size_t exec_pos = script.find("exec ");
  ASSERT_NE(exec_pos, std::string::npos);
  // Nothing but the trailing newline after the exec line.
  EXPECT_EQ(script.find('\n', exec_pos), script.size() - 1);
}

TEST(InitScriptTest, EntropyAndUlimitWhenRequested) {
  ContainerImage image = MakeAlpineImage(*FindManifest("postgres"));
  std::string script = GenerateInitScript(image);
  EXPECT_NE(script.find("entropy"), std::string::npos);

  ContainerImage nginx = MakeAlpineImage(*FindManifest("nginx"));
  EXPECT_NE(GenerateInitScript(nginx).find("ulimit nofile 65536"), std::string::npos);
}

TEST(InitScriptTest, MetadataDrivesEnv) {
  ContainerImage image;
  image.app = "custom";
  image.entrypoint = {"/bin/custom", "--flag"};
  image.env.emplace("A", "B");
  std::string script = GenerateInitScript(image);
  EXPECT_NE(script.find("env A=B"), std::string::npos);
  EXPECT_NE(script.find("exec /bin/custom --flag"), std::string::npos);
}

}  // namespace
}  // namespace lupine::apps
